package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.data.{AttrKind, Scenario, ScenarioConfig, ScenarioGen, Scenarios}
import repro.eval.{Bench, QualityTests}
import repro.integration._

import scala.collection.mutable

/** Deterministic outputs of one run: counts of the work each layer did and
  * the quality of the results. Every run of one set-up must reproduce them
  * exactly (fixed seeds, fixed parallelism). */
final class Outputs {
  val counts: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty
  val quality: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  def add(key: String, n: Long): Unit = counts(key) = counts.getOrElse(key, 0L) + n

  def diff(that: Outputs): Seq[String] =
    (counts.keySet ++ that.counts.keySet).toSeq.collect {
      case k if counts.get(k) != that.counts.get(k) => s"$k: ${counts.get(k)} vs ${that.counts.get(k)}"
    } ++ (quality.keySet ++ that.quality.keySet).toSeq.collect {
      case k if quality.get(k) != that.quality.get(k) => s"$k: ${quality.get(k)} vs ${that.quality.get(k)}"
    }
}

/** One execution of a workload's timed part. Scoring is deferred with
  * [[later]] so that it runs after the clock stops. */
final class Run(val spark: SparkSession, val tracer: Tracer) {
  private val deferred = mutable.ArrayBuffer.empty[Outputs => Unit]
  def later(f: Outputs => Unit): Unit = deferred += f
  def span[T](layer: String)(body: => T): T = tracer.span(layer)(body)
  def score(): Outputs = { val o = new Outputs; deferred.foreach(_(o)); o }
}

/** A workload after set-up: the generated inputs, ready to run. */
trait Prepared {
  /** Key facts of the inputs for the run record. */
  def describe: Seq[(String, String)]
  /** The input relations, for the DuckDB cross-check. */
  def data: Seq[DataFrame]
  /** The timed part of one run. */
  def run(r: Run): Unit
}

/** A named workload: how to build its inputs from a seed. */
trait Workload {
  def name: String
  def why: String
  def setup(spark: SparkSession, seed: Long): Prepared
}

/** The benchmark's workloads and the pipeline steps they share.
  *
  * Seeds: workload seed `n` shifts the scenario generator's seed and the
  * pipeline seed (`Bench.Params.seed`, walks and word2vec) by `n`, so seed 0
  * is the configuration of the repository's bench suites. */
object Workloads {

  /** Pipeline parameters of the bench suites, with the corpus-size factor
    * and seed set by the workload (no environment overrides). */
  def params(corpusFactor: Long, seed: Long): Bench.Params =
    Bench.Params(corpusFactor = corpusFactor, dim = 64, walkLength = 60, window = 3,
      w2vPartitions = 1, w2vIters = 1, minCount = 2, nTop = 10, seed = 2020L + seed)

  def scenario(spark: SparkSession, base: ScenarioConfig, seed: Long): Scenario =
    ScenarioGen.generate(spark, base.copy(seed = base.seed + seed))

  def datasets(sc: Scenario): Seq[DataFrame] = Seq(sc.d1, sc.d2)

  // ------------------------------------------------------------ pipeline

  /** `EmbDI.run`, or under tracing the same layer calls in the same order
    * with a span around each. The traced run must reproduce the untraced
    * run's counts and F1 exactly, which keeps this copy honest. */
  def embdi(r: Run, data: Seq[DataFrame], cfg: EmbDI.Config): EmbDI.Result =
    if (!r.tracer.enabled) EmbDI.run(r.spark, data, cfg)
    else {
      val spark = r.spark
      val strategy = r.span("Tokenization")(
        EmbDI.resolveStrategy(spark, data, cfg.strategy, cfg.sigFigs))
      // `edges` is lazy; counting the persisted frame inside the span puts
      // the melt/tokenize/dedup work there instead of in the CSR collect.
      val edges = r.span("TripartiteGraph") {
        val e = TripartiteGraph.edges(spark, data, strategy, cfg.sigFigs)
          .persist(StorageLevel.MEMORY_AND_DISK)
        e.count()
        e
      }
      val graph = r.span("CompactGraph") {
        val g = CompactGraph.fromEdges(edges)
        edges.unpersist()
        g
      }
      val (nDistinct, nRows) = r.span("Tokenization") {
        (data.map(d => Tokenization.distinctValues(spark, d, cfg.sigFigs))
          .reduce(_ union _).distinct().count(), data.map(_.count()).sum)
      }
      val walkCfg = cfg.walk.copy(corpusTokens =
        if (cfg.corpusFactor > 0) RandomWalker.corpusTokensRule(nDistinct, nRows, cfg.corpusFactor)
        else cfg.walk.corpusTokens)
      val (corpus, nSentences) = r.span("RandomWalker") {
        val c = RandomWalker.corpus(spark, graph, walkCfg).persist(StorageLevel.MEMORY_AND_DISK)
        (c, c.count())
      }
      val model = r.span("EmbeddingTrainer") {
        val m = EmbeddingTrainer.train(corpus, cfg.w2v)
        corpus.unpersist()
        m
      }
      EmbDI.Result(model, graph, nSentences, nDistinct, EmbDI.Timings(0L, 0L, 0L))
    }

  /** Counts of an EmbDI result: graph, corpus and vocabulary. */
  def recordEmbdi(o: Outputs, res: EmbDI.Result, cfg: EmbDI.Config): Unit = {
    val g = res.graph
    val rids = g.nodeIdsOfType(1)
    o.add("Tokenization.distinct_values", res.nDistinctValues)
    o.add("TripartiteGraph.edges", g.numEdges)
    o.add("CompactGraph.nodes_token", g.nodeIdsOfType(0).length.toLong)
    o.add("CompactGraph.nodes_rid", rids.length.toLong)
    o.add("CompactGraph.nodes_cid", g.nodeIdsOfType(2).length.toLong)
    o.add("RandomWalker.start_nodes", RandomWalker.startNodes(g, cfg.walk.startStrategy).length.toLong)
    o.add("RandomWalker.sentences", res.nSentences)
    // Every walk has exactly walkLength nodes (computed, not counted).
    o.add("RandomWalker.tokens", res.nSentences * cfg.walk.walkLength)
    o.add("EmbeddingTrainer.vocab", res.model.size.toLong)
    o.add("EmbeddingTrainer.rids_kept", rids.count(i => res.model.contains(g.names(i))).toLong)
  }

  /** The EmbDI-O embedding of a dataset pair as `Bench.Bundle.embdiO` builds
    * it: shared values and words, overlap-start walks, RID-or-CID first step. */
  def embedPair(r: Run, sc: Scenario, p: Bench.Params): EmbDI.Result = {
    val shared = r.span("Tokenization")(Tokenization.sharedValues(r.spark, sc.d1, sc.d2))
    val words = r.span("Tokenization")(
      Tokenization.sharedTokens(r.spark, sc.d1, sc.d2, Tokenization.Flatten))
    val cfg = Bench.embdiConfig(Tokenization.Overlap(shared), p, Some(shared ++ words))
    val res = embdi(r, Seq(sc.d1, sc.d2), cfg)
    r.later { o =>
      o.add("Tokenization.shared_values", shared.size.toLong)
      o.add("Tokenization.shared_tokens", words.size.toLong)
      recordEmbdi(o, res, cfg)
    }
    res
  }

  /** `EntityResolver.matchRids`, or under tracing the same calls with spans
    * around the two top-k searches (nested in the resolver's span). */
  def matchRids(r: Run, model: EmbeddingModel, rids1: Seq[String], rids2: Seq[String],
                nTop: Int): Seq[(String, String)] = {
    val maxIterations = 10
    val pairs = r.span("EntityResolver") {
      if (!r.tracer.enabled) EntityResolver.matchRids(r.spark, model, rids1, rids2, nTop, maxIterations)
      else {
        val vecs1 = rids1.flatMap(x => model.vector(x).map(x -> _))
        val vecs2 = rids2.flatMap(x => model.vector(x).map(x -> _))
        if (vecs1.isEmpty || vecs2.isEmpty) Seq.empty
        else {
          val top12 = r.span("NearestNeighbors")(NearestNeighbors.topK(r.spark, vecs1, vecs2, nTop))
          val top21 = r.span("NearestNeighbors")(NearestNeighbors.topK(r.spark, vecs2, vecs1, nTop))
          val sims: Map[(String, String), Double] =
            (top12.toSeq.flatMap { case (a, ns) => ns.map { case (b, s) => (a, b) -> s } } ++
             top21.toSeq.flatMap { case (b, ns) => ns.map { case (a, s) => (a, b) -> s } }).toMap
          SchemaMatcher.mutualMatch(sims, vecs1.map(_._1), vecs2.map(_._1), maxIterations, nTop)
        }
      }
    }
    recordMatch(r, model, rids1, rids2, pairs.size)
    pairs
  }

  /** Counts of one `matchRids` call over the RIDs that have vectors. */
  def recordMatch(r: Run, model: EmbeddingModel, rids1: => Seq[String], rids2: => Seq[String],
                  nPairs: Int): Unit =
    r.later { o =>
      val nl = rids1.count(model.contains).toLong
      val nr = rids2.count(model.contains).toLong
      // Computed: two top-k passes and two candidate-list builds over L×R.
      o.add("NearestNeighbors.dot_products", 2 * nl * nr)
      o.add("EntityResolver.queries", nl)
      o.add("EntityResolver.pairs", nPairs.toLong)
      o.add("EntityResolver.candidate_probes", 2 * nl * nr)
    }

  def groundTruth(sc: Scenario): Set[(Long, Long)] =
    sc.rowMatches.collect().map(x => (x.getLong(0), x.getLong(1))).toSet

  /** ER under the GT-query protocol of `Bench.erScore`: D1 rows with a
    * ground-truth match query all of D2. */
  def erGtQuery(r: Run, rows: (Long, Long), gt: Set[(Long, Long)], model: EmbeddingModel,
                nTop: Int, key: String): Unit = {
    val (n1, n2) = rows
    val pairs = r.span("EntityResolver") {
      val queries = gt.map(_._1).toSeq.sorted.map(NodeNames.rid).filter(model.contains)
      val targets = EntityResolver.ridsIn(model, n1, n1 + n2)
      matchRids(r, model, queries, targets, nTop)
    }
    r.later(_.quality(key) = Metrics.prf(
      pairs.map { case (a, b) => (NodeNames.ridValue(a), NodeNames.ridValue(b)) }.toSet, gt).f1)
  }

  /** ER with every D1 RID against every D2 RID (`resolveAndScore`). */
  def erAllRows(r: Run, rows: (Long, Long), gt: Set[(Long, Long)], model: EmbeddingModel,
                nTop: Int, key: String): Unit = {
    val (n1, n2) = rows
    val prf =
      if (!r.tracer.enabled) {
        val (pairs, prf) = EntityResolver.resolveAndScore(
          r.spark, model, (0L, n1), (n1, n1 + n2), gt, nTop)
        recordMatch(r, model, EntityResolver.ridsIn(model, 0L, n1),
          EntityResolver.ridsIn(model, n1, n1 + n2), pairs.size)
        prf
      } else {
        val pairs = r.span("EntityResolver") {
          matchRids(r, model, EntityResolver.ridsIn(model, 0L, n1),
            EntityResolver.ridsIn(model, n1, n1 + n2), nTop)
        }
        Metrics.prf(pairs.map { case (a, b) =>
          (NodeNames.ridValue(a), NodeNames.ridValue(b)) }.toSet, gt)
      }
    r.later(_.quality(key) = prf.f1)
  }

  /** Algorithm 5 over the CIDs of both datasets. */
  def schemaMatch(r: Run, sc: Scenario, model: EmbeddingModel): Unit = {
    val got = r.span("SchemaMatcher")(SchemaMatcher.matchCids(model,
      sc.columns1.map(NodeNames.cid(1, _)), sc.columns2.map(NodeNames.cid(2, _))))
    r.later(_.quality("sm_f1") =
      Metrics.prf(SchemaMatcher.toColumnPairs(got).toSet, sc.colMatches.toSet).f1)
  }

  /** Token matching on the scenario's aligned country/language column pairs,
    * scored as in `TokenMatchingBench`; `tm_f1` is the mean over the pairs. */
  final case class TmInput(dom1: Seq[String], dom2: Seq[String], gt: Seq[(String, String)])

  def tokenMatchInputs(sc: Scenario): Seq[TmInput] =
    sc.tokenMatchGt.toSeq.sortBy(_._1).map { case ((c1, c2), gtAll) =>
      val dom1 = TokenMatcher.domain(sc.d1, c1)
      val dom2 = TokenMatcher.domain(sc.d2, c2)
      TmInput(dom1, dom2, gtAll.filter { case (f, c) => dom1.contains(f) && dom2.contains(c) })
    }

  def tokenMatch(r: Run, inputs: Seq[TmInput], model: EmbeddingModel): Unit = {
    val preds = inputs.map(in =>
      r.span("TokenMatcher")(TokenMatcher.matchByEmbedding(model, in.dom1, in.dom2)))
    r.later { o =>
      val f1s = inputs.zip(preds).map { case (in, pred) =>
        val inGt = in.gt.map(_._1).toSet
        TokenMatcher.score(pred.filter(p => inGt(p._1)), in.gt).f1
      }
      o.quality("tm_f1") = if (f1s.isEmpty) 0.0 else f1s.sum / f1s.size
    }
  }

  /** MA/MR/MC tests of Table 2 for a scenario, built as `Bench.qualityTests`
    * builds them but from the seeded scenario. */
  def qualityTests(spark: SparkSession, sc: Scenario, seed: Long): Map[String, Seq[QualityTests.QTest]] = {
    val strat = Tokenization.Overlap(Tokenization.sharedValues(spark, sc.d1, sc.d2))
    val data = datasets(sc).map(QualityTests.tokenize(_, strat))
    val cols = sc.config.columns
    val oneCols = cols.filter(_.kind == AttrKind.Maker).flatMap(c => Seq(c.nameIn1, c.nameIn2)).toSet
    val manyCols = cols.filter(_.kind == AttrKind.Title).flatMap(c => Seq(c.nameIn1, c.nameIn2)).toSet
    val nPerKind = 300
    Map(
      "MA" -> QualityTests.matchAttribute(data, nPerKind, seed + 1),
      "MR" -> QualityTests.matchRow(data, nPerKind, seed + 2),
      "MC" -> QualityTests.matchConcept(data, oneCols, manyCols, strat, nPerKind, seed + 3))
  }

  def scoreQuality(o: Outputs, model: EmbeddingModel, tests: Map[String, Seq[QualityTests.QTest]]): Unit =
    o.quality("quality_mean") = Bench.scoreQuality(model, tests).avg

  // ------------------------------------------------------------ workloads

  /** Common set-up state of the dataset-pair workloads. */
  abstract class PairPrepared(spark: SparkSession, val sc: Scenario, val p: Bench.Params)
      extends Prepared {
    lazy val gt: Set[(Long, Long)] = groundTruth(sc)
    /** Row counts of D1 and D2 (RID ranges), counted once here. */
    lazy val rows: (Long, Long) = (sc.nRows1, sc.nRows2)
    lazy val tests: Map[String, Seq[QualityTests.QTest]] = qualityTests(spark, sc, p.seed)
    def describe: Seq[(String, String)] = Seq(
      "scenario" -> sc.config.shorthand, "scenario_seed" -> sc.config.seed.toString,
      "pipeline_seed" -> p.seed.toString, "corpus_factor" -> p.corpusFactor.toString,
      "rows" -> s"${rows._1}+${rows._2}", "column_pairs" -> sc.colMatches.size.toString,
      "gt_matches" -> gt.size.toString)
    def data: Seq[DataFrame] = datasets(sc)
  }

  /** The paper's headline path on a small pair: embed, then SM and ER. */
  final class PairEmbed(val name: String, val why: String, base: ScenarioConfig,
                        corpusFactor: Long) extends Workload {
    def setup(spark: SparkSession, seed: Long): Prepared =
      new PairPrepared(spark, scenario(spark, base, seed), params(corpusFactor, seed)) {
        def run(r: Run): Unit = {
          val res = embedPair(r, sc, p)
          schemaMatch(r, sc, res.model)
          erGtQuery(r, rows, gt, res.model, p.nTop, "er_f1")
          r.later(scoreQuality(_, res.model, tests))
        }
      }
  }

  /** The §6 tasks on fixed embeddings: the EmbDI-O embedding of the pair is
    * trained once in set-up, so the run is all matching. */
  final class PairMatch(val name: String, val why: String, base: ScenarioConfig,
                        corpusFactor: Long, nTops: Seq[Int]) extends Workload {
    def setup(spark: SparkSession, seed: Long): Prepared =
      new PairPrepared(spark, scenario(spark, base, seed), params(corpusFactor, seed)) {
        private val embedded = embedPair(new Run(spark, new Tracer(spark.sparkContext, false)), sc, p)
        private val model = embedded.model
        private lazy val tmInputs = tokenMatchInputs(sc)
        override def describe: Seq[(String, String)] = super.describe ++ Seq(
          "embedding" -> "EmbDI-O, trained in set-up", "vocab" -> model.size.toString,
          "embedding_graph_walk_train_ms" -> {
            val t = embedded.timings; s"${t.graphMs}/${t.walkMs}/${t.trainMs}" },
          "n_top_sweep" -> nTops.mkString(","), "token_match_pairs" -> tmInputs.size.toString)
        def run(r: Run): Unit = {
          schemaMatch(r, sc, model)
          erAllRows(r, rows, gt, model, p.nTop, "er_f1")
          nTops.foreach(k => erGtQuery(r, rows, gt, model, k, s"er_f1_gt_ntop$k"))
          tokenMatch(r, tmInputs, model)
          r.later(scoreQuality(_, model, tests))
        }
      }
  }

  /** Workloads run one after another, each on its own set-up. Counts add up;
    * for a quality output the last part's value stands. */
  final class Chain(val name: String, val why: String, parts: Seq[Workload]) extends Workload {
    def setup(spark: SparkSession, seed: Long): Prepared = {
      val prepared = parts.map(_.setup(spark, seed))
      new Prepared {
        def describe: Seq[(String, String)] = parts.zip(prepared).flatMap { case (w, pr) =>
          pr.describe.map { case (k, v) => s"${w.name}.$k" -> v } }
        /** The first part's inputs: the graph counts of a run come from it. */
        def data: Seq[DataFrame] = prepared.head.data
        def run(r: Run): Unit = prepared.foreach(_.run(r))
      }
    }
  }

  /** `cfg` with its entity counts scaled by `f`; vocabularies, noise and
    * seed unchanged. */
  def resized(cfg: ScenarioConfig, f: Double): ScenarioConfig =
    cfg.copy(nShared = (cfg.nShared * f).round.toInt, nOnly1 = (cfg.nOnly1 * f).round.toInt,
      nOnly2 = (cfg.nOnly2 * f).round.toInt)

  /** The workloads of BENCHMARK.json. Sizes are set so that one benchmark
    * process (JVM and Spark start, set-up, warm-up, timed runs) stays near
    * one minute on a 4-core host; see perfbench/README.md. */
  val all: Seq[Workload] = Seq(
    new PairEmbed("pair-fz",
      "FZ pair end to end: tokenize, graph, walks and training, then SM and GT-query ER",
      Scenarios.fz, corpusFactor = 100L),
    new PairMatch("match-im",
      "IM matching on embeddings trained in set-up: SM, all-rows ER, n_top sweep, token matching",
      resized(Scenarios.im, 0.3), corpusFactor = 100L, nTops = Seq(1, 3, 5, 10)),
  )

  /** Seconds-long input on `Scenarios.tiny`: the bodies of both workloads,
    * so every layer and every check runs; backs the harness's own tests. Not
    * a benchmark workload. */
  val smoke: Workload = new Chain("smoke", "tiny scenario through both workload bodies", Seq(
    new PairEmbed("pair", "", Scenarios.tiny, corpusFactor = 20L),
    new PairMatch("match", "", Scenarios.tiny, corpusFactor = 20L, nTops = Seq(1, 10))))

  def byName(name: String): Workload =
    (all :+ smoke).find(_.name == name)
      .getOrElse(throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${(all :+ smoke).map(_.name).mkString(", ")})"))
}
