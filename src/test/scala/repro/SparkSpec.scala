package repro

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._

import org.apache.spark.TestBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted,
  SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.tables.Tables

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM. The session is the table runner's
  * ([[repro.tables.Tables.session]]): master from SPARK_MASTER (default
  * `local[4]`, 4 cores whatever the host has) and 64 shuffle partitions.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Runs `body` with `listener` added, with the listener bus drained
    * before and after so that no other job's events reach it.
    */
  private def listening(listener: SparkListener)(body: => Unit): Unit = {
    val sc = spark.sparkContext
    TestBus.drain(sc)
    sc.addSparkListener(listener)
    try { body; TestBus.drain(sc) } finally sc.removeSparkListener(listener)
  }

  /** Spark jobs started by `body`. */
  def jobsOf(body: => Unit): Int = {
    val jobs = new AtomicInteger
    listening(new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    })(body)
    jobs.get
  }

  /** Task counts of the stages submitted by `body`, in submission order. */
  def stageTasksOf(body: => Unit): Vector[Int] = {
    val tasks = new ConcurrentLinkedQueue[Int]
    listening(new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = tasks.add(e.stageInfo.numTasks)
    })(body)
    tasks.asScala.toVector
  }

  /** Bytes each task started by `body` sent back to the driver as its
    * result (`taskMetrics.resultSize`), in completion order.
    */
  def taskResultBytesOf(body: => Unit): Vector[Long] = {
    val bytes = new ConcurrentLinkedQueue[Long]
    listening(new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => bytes.add(m.resultSize))
    })(body)
    bytes.asScala.toVector
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = Tables.session("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
