package org.apache.spark

/** The listener bus is private to Spark; this object, compiled into the
  * benchmark only, lets it wait until queued events have been delivered.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
