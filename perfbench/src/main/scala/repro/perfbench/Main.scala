package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.sql.SparkSession

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Peak old-generation occupancy after GC, from the JVM's GC notifications.
  * An instantaneous used-heap reading swings with allocation timing; the
  * occupancy left after each collection tracks retained data. */
object HeapPeak {
  private val oldPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(p => p.getType == MemoryType.HEAP && p.isCollectionUsageThresholdSupported &&
      (p.getName.contains("Old") || p.getName.contains("Tenured")))
    .map(_.getName).toSet
  @volatile private var peak = 0L

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: AnyRef): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if oldPools(pool) => u.getUsed }.sum
        HeapPeak.synchronized { peak = math.max(peak, used) }
      }
  }

  private lazy val installed: Unit = ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _ =>
  }
  /** Start a new peak at the current occupancy after the last collection. */
  def reset(): Unit = synchronized {
    installed
    peak = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => oldPools(p.getName)).map(_.getCollectionUsage.getUsed).sum
  }
  def peakMb: Double = peak / 1e6
}

/** Minimal JSON rendering for the result and the run record. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else d.toString
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")
}

/** The benchmark process: set up one workload, run it for the given time
  * and write the result object (and a self-describing run record).
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *   --result <file> --record <file> [--git-sha <sha>]`
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        result: String, record: String, gitSha: String)

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") match {
        case "0" => false; case "1" => true
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      },
      need("result"), need("record"), m.getOrElse("git-sha", "unknown"))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Cores of the local Spark session: all of the host's, at most 4. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())
  val shufflePartitions: Int = 2 * cores
  val warmupSeconds = 16.0

  def session(): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      // Keep the status store small so that heap use does not grow with the
      // number of runs a process makes.
      .config("spark.ui.retainedJobs", "100")
      .config("spark.ui.retainedStages", "100")
      .config("spark.ui.retainedTasks", "1000")
      .config("spark.sql.ui.retainedExecutions", "20")
      .getOrCreate()

  /** One timed run: wall seconds, peak old-gen MB, outputs, trace metrics. */
  final case class Sample(seconds: Double, heapMb: Double, outputs: Outputs,
                          layers: Map[String, Double])

  def runOnce(spark: SparkSession, prepared: Prepared, traced: Boolean): Sample = {
    val sc = spark.sparkContext
    val listener = if (traced) Some(new LayerListener) else None
    listener.foreach(sc.addSparkListener)
    val tracer = new Tracer(sc, traced)
    val run = new Run(spark, tracer)
    val baseNs = System.nanoTime(); val baseMs = System.currentTimeMillis()
    System.gc()
    HeapPeak.reset()
    val t0 = System.nanoTime()
    prepared.run(run)
    val seconds = (System.nanoTime() - t0) / 1e9
    val heapMb = HeapPeak.peakMb
    val layers = listener.map { l =>
      l.awaitQuiet()
      sc.removeSparkListener(l)
      val spans = tracer.recorded
      val m = LayerTotals.metrics(spans, l.finishedJobs, ns => baseMs + (ns - baseNs) / 1e6)
      val covered = Layers.all.map(x => m(s"$x.wall_s")).sum
      m ++ Map("Trace.run_s" -> seconds, "Trace.coverage" -> covered / seconds,
        "Trace.unattributed_jobs" -> l.finishedJobs.count(_.layer == "unattributed").toDouble)
    }.getOrElse(Map.empty)
    val outputs = run.score()
    val leaked = sc.getPersistentRDDs
    if (leaked.nonEmpty)
      throw new IllegalStateException(s"run left ${leaked.size} persisted RDDs: ${leaked.values.mkString(", ")}")
    Sample(seconds, heapMb, outputs, layers)
  }

  /** What one benchmark process reports: the result object's fields and the
    * run record (JSON). */
  final case class Report(correct: Boolean, attempted: Int, failed: Int,
                          metrics: Seq[(String, Double, String)], record: String) {
    def resultJson: String = Json.obj(Seq(
      "correct" -> correct.toString, "attempted" -> attempted.toString,
      "failed" -> failed.toString, "metrics" -> Json.obj(metrics.map { case (k, v, u) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) })))
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark = session()
    val sparkReadyS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val code =
      try {
        val report = execute(spark, opts, s => println(s"# $s"), sparkReadyS)
        write(opts.record, report.record)
        write(opts.result, report.resultJson)
        if (report.correct) 0 else 1
      } catch {
        case NonFatal(e) => e.printStackTrace(); 2
      }
    spark.stop()
    sys.exit(code)
  }

  /** Set up the workload, warm up, run it for `opts.seconds` and check every
    * run. `sparkReadyS` is the JVM and Spark start time, part of `setup_s`. */
  def execute(spark: SparkSession, opts: Opts, log: String => Unit, sparkReadyS: Double): Report = {
    val workload = Workloads.byName(opts.workload)
    val t0 = System.nanoTime()
    val prepared = workload.setup(spark, opts.seed)
    val setupWorkloadS = (System.nanoTime() - t0) / 1e9
    val setupS = sparkReadyS + setupWorkloadS
    log(f"set-up: spark ${sparkReadyS}%.2f s, workload ${setupWorkloadS}%.2f s")
    val describe = prepared.describe
    log(describe.map { case (k, v) => s"$k=$v" }.mkString(" "))

    // Warm-up: untimed runs until one has finished and `warmupSeconds`
    // have passed (the first run in a JVM is about twice as slow, and short
    // runs keep speeding up for several seconds more). The first run's outputs are
    // the reference every later run must reproduce exactly.
    val warmStart = System.nanoTime()
    val warm = runOnce(spark, prepared, traced = false)
    val reference = warm.outputs
    var warmRuns = 1
    while ((System.nanoTime() - warmStart) / 1e9 < warmupSeconds) {
      val diff = reference.diff(runOnce(spark, prepared, traced = false).outputs)
      require(diff.isEmpty, s"warm-up runs disagree: ${diff.mkString("; ")}")
      warmRuns += 1
    }
    log(f"warm-up: $warmRuns runs, first ${warm.seconds}%.2f s")
    // Workloads that build the graph cross-check its RID/CID node counts.
    for (rid <- reference.counts.get("CompactGraph.nodes_rid");
         cid <- reference.counts.get("CompactGraph.nodes_cid")) {
      OracleChecks.nodeCounts(spark, prepared.data, rid, cid)
      log("DuckDB cross-check of RID/CID node counts passed")
    }

    var attempted = 0
    var failed = 0
    val samples = mutable.ArrayBuffer.empty[Sample]
    val loopStart = System.nanoTime()
    def elapsed = (System.nanoTime() - loopStart) / 1e9
    // Traced mode alternates untraced and traced runs for the overhead.
    while (elapsed < opts.seconds || attempted < (if (opts.trace) 2 else 1)) {
      val traced = opts.trace && attempted % 2 == 1
      attempted += 1
      try {
        val s = runOnce(spark, prepared, traced)
        val diff = reference.diff(s.outputs)
        if (diff.nonEmpty) { failed += 1; log(s"output check failed: ${diff.mkString("; ")}") }
        else samples += s
        log(f"run ${attempted}%d${if (traced) " (traced)" else ""}: ${s.seconds}%.3f s, " +
          f"old gen ${s.heapMb}%.1f MB" + Layers.all.flatMap(l => s.layers.get(s"$l.wall_s")
            .filter(_ > 0.05).map(v => f" $l=$v%.2f")).mkString)
      } catch {
        case NonFatal(e) =>
          failed += 1
          log(s"run $attempted failed: $e")
          if (samples.isEmpty && attempted >= 3) throw e
      }
    }

    val untraced = samples.filter(_.layers.isEmpty)
    val traced = samples.filter(_.layers.nonEmpty)
    val q = reference.quality
    val endToEnd = Seq(
      ("run_s", median(untraced.map(_.seconds).toSeq), "s"),
      ("setup_s", setupS, "s"),
      ("peak_heap_mb", median(untraced.map(_.heapMb).toSeq), "MB"),
      ("quality_mean", q("quality_mean"), "ratio"),
      ("er_f1", q("er_f1"), "ratio"),
      ("sm_f1", q("sm_f1"), "ratio"))
    val perLayer = if (opts.trace) layerMetrics(reference, traced.toSeq, untraced.toSeq) else Nil
    val metrics = if (opts.trace) perLayer else endToEnd
    metrics.foreach { case (k, v, u) => log(f"$k%-40s $v%14.6f $u") }

    val correct = failed == 0 && samples.nonEmpty
    val sc = spark.sparkContext
    val record = Json.obj(Seq(
      "workload" -> Json.str(workload.name), "why" -> Json.str(workload.why),
      "seed" -> opts.seed.toString, "seconds" -> Json.num(opts.seconds),
      "trace" -> opts.trace.toString, "git_sha" -> Json.str(opts.gitSha),
      "config" -> Json.obj(describe.map { case (k, v) => k -> Json.str(v) }),
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "spark_master" -> Json.str(sc.master),
      "spark_default_parallelism" -> sc.defaultParallelism.toString,
      "spark_shuffle_partitions" -> shufflePartitions.toString,
      "spark_version" -> Json.str(spark.version),
      "jdk_version" -> Json.str(System.getProperty("java.version")),
      "jvm_max_heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1e6),
      "spark_ready_s" -> Json.num(sparkReadyS),
      "setup_workload_s" -> Json.num(setupWorkloadS),
      "warmup_first_s" -> Json.num(warm.seconds), "warmup_runs" -> warmRuns.toString,
      "run_s_samples" -> Json.arr(untraced.toSeq.map(s => Json.num(s.seconds))),
      "traced_run_s_samples" -> Json.arr(traced.toSeq.map(s => Json.num(s.seconds))),
      "peak_heap_mb_samples" -> Json.arr(untraced.toSeq.map(s => Json.num(s.heapMb))),
      "counts" -> Json.obj(reference.counts.toSeq.map { case (k, v) => k -> v.toString }),
      "quality" -> Json.obj(q.toSeq.map { case (k, v) => k -> Json.num(v) }),
      "attempted" -> attempted.toString, "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map { case (k, v, u) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) })))
    Report(correct, attempted, failed, metrics, record)
  }

  private def write(path: String, text: String): Unit =
    Files.write(Paths.get(path), (text + "\n").getBytes(StandardCharsets.UTF_8))

  /** Per-layer metrics of the traced runs (medians over traced runs), the
    * counts and F1 of the outputs, and the tracing overhead. */
  def layerMetrics(ref: Outputs, traced: Seq[Sample], untraced: Seq[Sample]): Seq[(String, Double, String)] = {
    def med(k: String) = median(traced.map(_.layers.getOrElse(k, 0.0)))
    def count(k: String) = ref.counts.getOrElse(k, 0L).toDouble
    val timing = Layers.all.flatMap { l =>
      Seq(s"$l.wall_s" -> "s") ++ (if (Layers.sparkLayers.contains(l)) Seq(
        s"$l.driver_s" -> "s", s"$l.jobs" -> "count", s"$l.tasks" -> "count",
        s"$l.task_s" -> "s", s"$l.gc_s" -> "s", s"$l.shuffle_write_mb" -> "MB",
        s"$l.sched_wait_s" -> "s") else Nil)
    }.map { case (k, u) => (k, med(k), u) }
    val counts = Seq("Tokenization.shared_values", "Tokenization.shared_tokens",
      "Tokenization.distinct_values", "TripartiteGraph.edges", "CompactGraph.nodes_token",
      "CompactGraph.nodes_rid", "CompactGraph.nodes_cid", "RandomWalker.start_nodes",
      "RandomWalker.sentences", "RandomWalker.tokens", "EmbeddingTrainer.vocab",
      "NearestNeighbors.dot_products", "EntityResolver.queries", "EntityResolver.pairs",
      "EntityResolver.candidate_probes").map(k => (k, count(k), "count"))
    val trainS = med("EmbeddingTrainer.wall_s")
    val derived = Seq(
      ("EmbeddingTrainer.tokens_per_s",
        if (trainS > 0) count("RandomWalker.tokens") / trainS else 0.0, "1/s"),
      ("EmbeddingTrainer.rid_kept_ratio",
        if (count("CompactGraph.nodes_rid") > 0)
          count("EmbeddingTrainer.rids_kept") / count("CompactGraph.nodes_rid") else 0.0, "ratio"),
      ("EntityResolver.f1", ref.quality.getOrElse("er_f1", 0.0), "ratio"),
      ("SchemaMatcher.f1", ref.quality.getOrElse("sm_f1", 0.0), "ratio"),
      ("TokenMatcher.f1", ref.quality.getOrElse("tm_f1", 0.0), "ratio"),
      ("Trace.run_s", med("Trace.run_s"), "s"),
      ("Trace.overhead_s", med("Trace.run_s") - median(untraced.map(_.seconds)), "s"),
      ("Trace.coverage", med("Trace.coverage"), "ratio"),
      ("Trace.unattributed_jobs", med("Trace.unattributed_jobs"), "count"))
    timing ++ counts ++ derived
  }
}
