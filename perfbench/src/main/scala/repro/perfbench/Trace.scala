package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable

/** Layers of the pipeline, named after the modules the benchmark calls.
  * `sparkLayers` run Spark jobs; `localLayers` are plain JVM code, so only
  * their span time is reported. */
object Layers {
  val sparkLayers: Seq[String] = Seq("Tokenization", "TripartiteGraph", "CompactGraph",
    "RandomWalker", "EmbeddingTrainer", "NearestNeighbors", "EntityResolver")
  val localLayers: Seq[String] = Seq("SchemaMatcher", "TokenMatcher")
  val all: Seq[String] = sparkLayers ++ localLayers
}

/** One timed call into a layer: wall-clock interval (System.nanoTime) and
  * the span that was open when it started (-1 at top level). */
final case class Span(id: Int, parent: Int, layer: String, startNs: Long, endNs: Long)

/** One Spark job as the listener saw it: the layer it is attributed to,
  * its run interval (epoch ms) and the totals of its tasks. */
final class JobRecord(val layer: String, val startMs: Long) {
  var endMs: Long = -1L
  var tasks = 0
  var taskMs = 0L
  var gcMs = 0L
  var shuffleWriteBytes = 0L
  var schedWaitMs = 0L
}

/** Spark listener that attributes jobs to layers: by the source file of the
  * job's call site when that file is a layer module (`collect at
  * NearestNeighbors.scala:44`), otherwise by the layer span open on the
  * submitting thread (a local property set by [[Tracer.span]]). */
final class LayerListener extends SparkListener {
  private val jobs = mutable.LinkedHashMap.empty[Int, JobRecord]
  private val stageJob = mutable.Map.empty[Int, JobRecord]
  private val stageSubmitted = mutable.Map.empty[Int, Long]

  private val CallSiteFile = """ at (\w+)\.scala:\d+""".r.unanchored

  private[perfbench] def layerOf(callSite: String, spanLayer: String): String =
    callSite match {
      case CallSiteFile(file) if Layers.all.contains(file) => file
      case _ => Option(spanLayer).getOrElse("unattributed")
    }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val callSite = e.stageInfos.sortBy(_.stageId).lastOption.map(_.name).getOrElse("")
    val span = Option(e.properties).map(_.getProperty(Tracer.LayerKey)).orNull
    val rec = new JobRecord(layerOf(callSite, span), e.time)
    jobs(e.jobId) = rec
    e.stageIds.foreach(stageJob(_) = rec)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    e.stageInfo.submissionTime.foreach(stageSubmitted(e.stageInfo.stageId) = _)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageJob.get(e.stageId).foreach { rec =>
      rec.tasks += 1
      val info = e.taskInfo
      stageSubmitted.get(e.stageId).foreach(s => rec.schedWaitMs += math.max(0L, info.launchTime - s))
      Option(e.taskMetrics).foreach { m =>
        rec.taskMs += m.executorRunTime
        rec.gcMs += m.jvmGCTime
        rec.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Jobs seen so far whose end event has arrived. */
  def finishedJobs: Seq[JobRecord] = synchronized(jobs.values.filter(_.endMs >= 0).toSeq)

  /** Block until every job whose start was seen has also ended: listener
    * events arrive asynchronously after the action returns. */
  def awaitQuiet(timeoutMs: Long = 10000L): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (synchronized(jobs.values.exists(_.endMs < 0)) && System.currentTimeMillis() < deadline)
      Thread.sleep(20)
  }
}

/** Spans around the benchmark's calls into each layer. Disabled tracers run
  * the body with no bookkeeping; enabled ones keep spans in memory and tag
  * Spark jobs with the open span's layer. */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[T](layer: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(-1)
      val outer = sc.getLocalProperty(Tracer.LayerKey)
      sc.setLocalProperty(Tracer.LayerKey, layer)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, layer, t0, System.nanoTime())
        open = open.tail
        sc.setLocalProperty(Tracer.LayerKey, outer)
      }
    }

  def recorded: Seq[Span] = spans.sortBy(_.id).toSeq
}

object Tracer {
  val LayerKey = "perfbench.layer"
}

/** Per-layer totals of one traced run, derived from its spans and jobs.
  *
  * `wall_s` is a layer's self time: its spans minus the child spans nested
  * in them, so layers add up to the traced wall clock. `driver_s` is that
  * self time minus the part of it during which any Spark job was running. */
object LayerTotals {

  private def union(intervals: Seq[(Long, Long)]): Seq[(Long, Long)] =
    intervals.filter(i => i._2 > i._1).sortBy(_._1).foldLeft(List.empty[(Long, Long)]) {
      case ((s, e) :: rest, (a, b)) if a <= e => (s, math.max(e, b)) :: rest
      case (acc, i) => i :: acc
    }.reverse

  private def overlap(a: Seq[(Long, Long)], b: Seq[(Long, Long)]): Long =
    (for ((s1, e1) <- a; (s2, e2) <- b) yield math.max(0L, math.min(e1, e2) - math.max(s1, s2))).sum

  /** Self intervals of every span, in nanoTime. */
  def selfIntervals(spans: Seq[Span]): Map[Int, Seq[(Long, Long)]] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = union(children.getOrElse(s.id, Nil).map(c => (c.startNs, c.endNs)))
      val gaps = (s.startNs +: kids.map(_._2)).zip(kids.map(_._1) :+ s.endNs)
      s.id -> gaps.filter(g => g._2 > g._1)
    }.toMap
  }

  /** Metrics per layer, keyed `Layer.metric`. `epochMsOfNs` maps a nanoTime
    * reading to the epoch-ms clock the listener's job times use. */
  def metrics(spans: Seq[Span], jobs: Seq[JobRecord],
              epochMsOfNs: Long => Double): Map[String, Double] = {
    val self = selfIntervals(spans)
    val jobIntervalsMs = union(jobs.map(j => (j.startMs, j.endMs)))
    // Job intervals in microseconds to keep integer arithmetic for overlap.
    val jobUs = jobIntervalsMs.map { case (s, e) => (s * 1000L, e * 1000L) }
    def toUs(ns: Long): Long = (epochMsOfNs(ns) * 1000.0).round
    val out = mutable.LinkedHashMap.empty[String, Double]
    Layers.all.foreach { layer =>
      val ivs = spans.filter(_.layer == layer).flatMap(s => self(s.id))
      val wallNs = ivs.map(i => i._2 - i._1).sum
      val inJobsUs = overlap(ivs.map(i => (toUs(i._1), toUs(i._2))), jobUs)
      out(s"$layer.wall_s") = wallNs / 1e9
      if (Layers.sparkLayers.contains(layer)) {
        val js = jobs.filter(_.layer == layer)
        out(s"$layer.driver_s") = math.max(0.0, wallNs / 1e9 - inJobsUs / 1e6)
        out(s"$layer.jobs") = js.size.toDouble
        out(s"$layer.tasks") = js.map(_.tasks).sum.toDouble
        out(s"$layer.task_s") = js.map(_.taskMs).sum / 1e3
        out(s"$layer.gc_s") = js.map(_.gcMs).sum / 1e3
        out(s"$layer.shuffle_write_mb") = js.map(_.shuffleWriteBytes).sum / 1e6
        out(s"$layer.sched_wait_s") = js.map(_.schedWaitMs).sum / 1e3
      }
    }
    out.toMap
  }
}
