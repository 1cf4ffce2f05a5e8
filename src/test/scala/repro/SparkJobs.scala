package repro

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.{LocalTableScanExec, QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.util.QueryExecutionListener

import scala.jdk.CollectionConverters._

/** What one block of driver code asks of Spark: its jobs and shuffle bytes,
  * counted by a `SparkListener` over the jobs of a job group set around the
  * block, and the executed plans of its Dataset actions.
  */
object SparkJobs extends AdaptiveSparkPlanHelper {

  final case class Counts(jobs: Int, shuffleWriteBytes: Long)

  private val groupKey = "spark.jobGroup.id"
  private val serial = new AtomicInteger

  def count(spark: SparkSession)(body: => Unit): Counts = {
    val sc = spark.sparkContext
    val group = s"counted-${serial.incrementAndGet()}"
    val marker = s"$group-marker"
    val jobs = new AtomicInteger
    val shuffle = new AtomicLong
    val stages = ConcurrentHashMap.newKeySet[Int]()
    val markerJobs = ConcurrentHashMap.newKeySet[Int]()
    @volatile var markerDone = false
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty(groupKey)).foreach {
          case `group`  => jobs.incrementAndGet(); e.stageIds.foreach(stages.add(_))
          case `marker` => markerJobs.add(e.jobId)
          case _ =>
        }
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (markerJobs.contains(e.jobId)) markerDone = true
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stages.contains(e.stageId))
          Option(e.taskMetrics).foreach(m => shuffle.addAndGet(m.shuffleWriteMetrics.bytesWritten))
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted block", interruptOnCancel = false)
      try body finally sc.clearJobGroup()
      // The listener bus delivers in order: once the marker job's end is
      // seen, every event of the block has been seen too.
      sc.setJobGroup(marker, "listener-bus marker", interruptOnCancel = false)
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 30_000_000_000L
      while (!markerDone && System.nanoTime() < deadline) Thread.sleep(10)
      require(markerDone, "listener bus did not deliver the marker job")
      Counts(jobs.get, shuffle.get)
    } finally sc.removeSparkListener(listener)
  }

  /** [[count]] of `body`, with the executed plans of its Dataset actions that
    * read an input: every plan not over local driver data only. */
  def countReads(spark: SparkSession)(body: => Unit): (Counts, Seq[SparkPlan]) = {
    var counts: Counts = null
    val plans = executedPlans(spark) { counts = count(spark)(body) }
    (counts, plans.filterNot(p => collectLeaves(p).forall(_.isInstanceOf[LocalTableScanExec])))
  }

  /** Executed plans of every Dataset action `body` runs. A marker action
    * after it flushes the (asynchronous) listener bus. */
  private def executedPlans(spark: SparkSession)(body: => Unit): Seq[SparkPlan] = {
    val seen = new ConcurrentLinkedQueue[SparkPlan]
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = seen.add(qe.executedPlan)
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      body
      spark.range(7).toDF("marker").collect()
      val deadline = System.nanoTime() + 30_000_000_000L
      def hasMarker = seen.asScala.exists(_.output.exists(_.name == "marker"))
      while (!hasMarker && System.nanoTime() < deadline) Thread.sleep(10)
      require(hasMarker, "listener bus did not deliver the marker action")
    } finally spark.listenerManager.unregister(listener)
    seen.asScala.toSeq.filterNot(_.output.exists(_.name == "marker"))
  }
}
