package perfbench

import scala.collection.mutable

import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MicroBatchExecution
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}

/** Spark's own counts for the jobs one span caused. `streaming*` count only
  * the jobs of streaming micro-batches.
  */
final class JobCounts {
  var jobs = 0L; var stages = 0L; var tasks = 0L; var busyMs = 0L
  var shuffleRead = 0L; var shuffleWrite = 0L
  var streamingTasks = 0L; var streamingShuffle = 0L
}

/** Listeners registered from the benchmark, never from the program.
  *
  * Every micro-batch's progress is kept, traced or not: batch latency and
  * state size are end-to-end figures on the streaming workload. Job, task
  * and shuffle counts are kept only while tracing. A job is attributed to
  * the span open on the benchmark thread when the job was submitted: the
  * span id is a local property, which the streaming query's own thread
  * inherits from the thread that starts the query.
  */
final class SparkProbe(spark: SparkSession, tracer: Tracer) {
  import SparkProbe.SpanKey

  private val sc = spark.sparkContext
  private val counts     = mutable.HashMap.empty[Int, JobCounts]
  private val stageSpan  = mutable.HashMap.empty[Int, (Int, Boolean)]
  private val progresses = mutable.ArrayBuffer.empty[StreamingQueryProgress]

  private val streamListener = new StreamingQueryListener {
    override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
    override def onQueryIdle(e: StreamingQueryListener.QueryIdleEvent): Unit = ()
    override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
    override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit =
      SparkProbe.this.synchronized { progresses += e.progress }
  }

  private val jobListener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = SparkProbe.this.synchronized {
      val props = Option(e.properties)
      val span = props.flatMap(p => Option(p.getProperty(SpanKey))).map(_.toInt).getOrElse(-1)
      val streaming = props.exists(_.getProperty(MicroBatchExecution.BATCH_ID_KEY) != null)
      countsOf(span).jobs += 1
      e.stageIds.foreach(s => stageSpan.update(s, (span, streaming)))
    }
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = SparkProbe.this.synchronized {
      stageSpan.get(e.stageInfo.stageId).foreach { case (span, _) => countsOf(span).stages += 1 }
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = SparkProbe.this.synchronized {
      stageSpan.get(e.stageId).foreach { case (span, streaming) =>
        val c = countsOf(span)
        c.tasks += 1
        if (streaming) c.streamingTasks += 1
        Option(e.taskMetrics).foreach { m =>
          c.busyMs += m.executorRunTime
          c.shuffleRead += m.shuffleReadMetrics.totalBytesRead
          c.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
          if (streaming) c.streamingShuffle += m.shuffleWriteMetrics.bytesWritten
        }
      }
    }
  }

  private def countsOf(span: Int): JobCounts = counts.getOrElseUpdate(span, new JobCounts)

  private var tracing = false

  spark.streams.addListener(streamListener)
  trace(tracer.enabled)

  /** Count jobs per span (and tag jobs with their span) or stop doing so. */
  def trace(on: Boolean): Unit = if (on != tracing) {
    tracing = on
    if (on) {
      sc.addSparkListener(jobListener)
      tracer.onSwitch = (id, name) =>
        if (id < 0) { sc.clearJobGroup(); sc.setLocalProperty(SpanKey, null) }
        else {
          sc.setJobGroup(s"perfbench-$id", name, interruptOnCancel = false)
          sc.setLocalProperty(SpanKey, id.toString)
        }
    } else {
      sc.removeSparkListener(jobListener)
      tracer.onSwitch = (_, _) => ()
      sc.clearJobGroup(); sc.setLocalProperty(SpanKey, null)
    }
  }

  /** Wait until every event posted so far has reached the listeners. */
  def drain(): Unit = PerfbenchBus.drain(sc)

  def jobCounts(span: Int): Option[JobCounts] = synchronized(counts.get(span))

  /** Progress of every micro-batch seen so far, in arrival order. */
  def progress: Vector[StreamingQueryProgress] = synchronized(progresses.toVector)

  def close(): Unit = { trace(false); spark.streams.removeListener(streamListener) }
}

object SparkProbe {
  val SpanKey = "perfbench.span"
}
