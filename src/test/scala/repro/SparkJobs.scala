package repro

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Spark jobs and shuffle bytes of one block of driver code, counted by a
  * `SparkListener` over the jobs of a job group set around the block.
  */
object SparkJobs {

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
}
