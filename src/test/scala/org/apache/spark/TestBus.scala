package org.apache.spark

/** The listener bus is private to Spark; this object, compiled into the
  * tests only, lets a test wait until queued events have been delivered.
  */
object TestBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
