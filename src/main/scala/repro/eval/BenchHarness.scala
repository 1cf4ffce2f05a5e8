package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines._
import repro.core._
import repro.data.{AttrKind, Scenario, Scenarios}
import repro.integration._

/** Shared machinery behind the per-table bench suites and the
  * `TableJob <1-6|tm>` spark-submit entrypoint: one lazily-trained bundle of
  * scenario + models per dataset shorthand, plus the rows and printed lines
  * of each table of §7 that both of them use. All parameters come from
  * [[Bench.Params]]; seeds are fixed so repeated runs agree.
  */
object Bench {

  final case class Params(
      corpusFactor: Long = sys.env.get("BENCH_CORPUS_FACTOR").map(_.toLong).getOrElse(100L),
      dim: Int = sys.env.get("BENCH_DIM").map(_.toInt).getOrElse(64),
      walkLength: Int = 60,
      window: Int = 3,
      /** No effect: the trainer's slice count is its own constant, so a
        * model does not depend on it; `perfbench/` still passes it. */
      w2vPartitions: Int = 1,
      w2vIters: Int = 1,
      /** word2vec min_count. Together with overlap-start walks this prunes
        * RIDs that never co-occur with a bridge token — the implicit
        * blocking behind the paper's high ER precision (§5.1). */
      minCount: Int = 2,
      nTop: Int = 10,
      seed: Long = 2020L,
  )

  val params: Params = Params()

  def w2v(p: Params = params): EmbeddingTrainer.W2VConfig =
    EmbeddingTrainer.W2VConfig(dim = p.dim, window = p.window, minCount = p.minCount,
      maxIter = p.w2vIters, seed = p.seed)

  /** EmbDI configuration; with a non-empty `overlapStart` the §5.1
    * imbalance heuristic is on: walks start only from those tokens, and each
    * opens with a RID or CID connected to its bridge token. */
  def embdiConfig(strategy: Tokenization.Strategy, p: Params = params,
                  overlapStart: Option[Set[String]] = None): EmbDI.Config =
    EmbDI.Config(
      strategy = strategy,
      walk = RandomWalker.WalkConfig(
        walkLength = p.walkLength, seed = p.seed,
        startStrategy = overlapStart.filter(_.nonEmpty)
          .fold[RandomWalker.StartStrategy](RandomWalker.AllNodes)(RandomWalker.OverlapTokens)),
      w2v = w2v(p),
      corpusFactor = p.corpusFactor,
    )

  /** EmbDI-S/F/O for datasets sharing the values `shared` and the words `words` (none for
    * a single relation): walks start from the tokens both hold under `strategy`. */
  def pairConfig(strategy: Tokenization.Strategy, shared: Set[String],
                 words: Set[String]): EmbDI.Config =
    embdiConfig(strategy, overlapStart = Some(strategy match {
      case Tokenization.Simple => shared
      case Tokenization.Flatten => words
      case Tokenization.Overlap(_) => shared ++ words
    }))

  /** All models for one scenario, trained on demand and cached. The
    * scenario's tables are read once, into [[relations]]; every model,
    * baseline and test set below works from those. */
  final class Bundle(val scenario: Scenario) {
    private val cfg = scenario.config
    def shorthand: String = cfg.shorthand

    /** d1, and d2 for a dataset pair. */
    def tables: Seq[DataFrame] = if (cfg.singleTable) Seq(scenario.d1) else Seq(scenario.d1, scenario.d2)
    lazy val relations: Seq[Relation] = tables.map(Relation.read)

    lazy val shared: Set[String] =
      if (cfg.singleTable) Set.empty
      else Tokenization.sharedValues(relations(0), relations(1))

    /** Word-level shared tokens (bridge set under Flatten tokenization). */
    lazy val sharedWords: Set[String] =
      if (cfg.singleTable) Set.empty
      else Tokenization.sharedTokens(relations(0), relations(1), Tokenization.Flatten)

    /** The default EmbDI configuration: EmbDI-O, with §5.1 overlap starts for a pair. */
    lazy val embdiOConfig: EmbDI.Config = pairConfig(Tokenization.Overlap(shared), shared, sharedWords)
    lazy val embdiO: EmbDI.Result = EmbDI.run(relations, embdiOConfig)
    lazy val embdiS: EmbDI.Result = EmbDI.run(relations, pairConfig(Tokenization.Simple, shared, sharedWords))
    lazy val embdiF: EmbDI.Result = EmbDI.run(relations, pairConfig(Tokenization.Flatten, shared, sharedWords))

    private lazy val corpusTokens: Long =
      RandomWalker.corpusTokensRule(embdiO.nDistinctValues,
        scenario.nRows1 + scenario.nRows2, params.corpusFactor)

    /** The baselines' corpora, each trained as EmbDI's is. */
    private def trained(corpus: => Array[Array[String]]) = EmbeddingTrainer.walkThenTrain(corpus, w2v())
    lazy val basic: EmbeddingTrainer.Trained = trained(BasicEmbeddings.corpus(relations,
      BasicEmbeddings.Config(corpusTokens, Tokenization.Overlap(shared), seed = params.seed)))
    lazy val node2vec: EmbeddingTrainer.Trained = trained(RandomWalker.uniformCorpus(embdiO.graph,
      corpusTokens, params.walkLength, params.seed))
    lazy val harp: EmbeddingTrainer.Trained = trained(Harp.corpus(embdiO.graph,
      Harp.Config(corpusTokens, params.walkLength, seed = params.seed)))

    lazy val pretrained: EmbeddingModel =
      PretrainedEmbeddings.forDatasets(relations, Tokenization.Overlap(shared), params.dim)

    def ridRange1: (Long, Long) = (0L, scenario.nRows1)
    def ridRange2: (Long, Long) = (scenario.nRows1, scenario.nRows1 + scenario.nRows2)
    lazy val groundTruth: Set[(Long, Long)] =
      scenario.rowMatches.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
  }

  private val cache = scala.collection.mutable.Map.empty[String, Bundle]

  def bundle(spark: SparkSession, shorthand: String): Bundle = synchronized {
    cache.getOrElseUpdate(shorthand.toUpperCase,
      new Bundle(Scenarios.generate(spark, Scenarios.byShorthand(shorthand))))
  }

  /** A table's rows and its lines as `bench/results/<table>.txt` holds them. */
  final case class Table[R](rows: Seq[R], lines: Seq[String])

  // ----------------------------------------------------------------- Table 1

  final case class Table1Row(shorthand: String, tuples: Long, columns: Int,
                             distinctValues: Long, matches: Long, sentences: Long,
                             overlapPct: Double) {
    def render: String =
      f"$shorthand%-4s ${tuples}%8d ${columns}%4d ${distinctValues}%9d " +
      f"${matches}%8d ${sentences}%10d ${overlapPct}%7.2f"
  }

  def table1(bs: Seq[Bundle]): Table[Table1Row] = {
    val rows = bs.map { b =>
      val (sc, distinct) = (b.scenario, b.embdiO.nDistinctValues)
      val overlap = if (sc.config.singleTable) Double.NaN else b.shared.size.toDouble / distinct * 100.0
      // #columns = distinct attributes overall (aligned pairs counted once).
      val nCols = sc.columns1.size +
        (if (sc.config.singleTable) 0 else sc.columns2.size - sc.colMatches.size)
      Table1Row(b.shorthand, sc.nRows1 + sc.nRows2, nCols,
        distinct, b.groundTruth.size, b.embdiO.nSentences, overlap)
    }
    val header = f"${"DS"}%-4s ${"tuples"}%8s ${"cols"}%4s ${"distinct"}%9s " +
      f"${"matches"}%8s ${"sentences"}%10s ${"overlap%"}%7s"
    Table(rows, header +: rows.map(_.render))
  }

  // ----------------------------------------------------------------- Table 2

  /** MA/MR/MC pass fractions; `None` where the scenario has no test of the
    * kind (FZ has no maker column, so no MC test). */
  final case class QualityScores(ma: Option[Double], mr: Option[Double], mc: Option[Double]) {
    /** The mean of the applicable scores. */
    def avg: Double = { val s = Seq(ma, mr, mc).flatten; s.sum / s.size }
    def render: String = {
      def show(x: Option[Double]) = x.fold("n.a.")(v => f"$v%.2f")
      s"MA=${show(ma)} MR=${show(mr)} MC=${show(mc)} AVG=${show(Some(avg))}"
    }
  }

  /** MA/MR/MC test sets for a scenario under its default (Overlap)
    * tokenization, shared by all methods for fairness. */
  def qualityTests(b: Bundle, nPerKind: Int = 300): Map[String, Seq[QualityTests.QTest]] = {
    val strat = Tokenization.Overlap(b.shared)
    val data = b.relations.map(QualityTests.tokenize(_, strat))
    val cfg = b.scenario.config
    val oneCols = cfg.columns.filter(_.kind == AttrKind.Maker)
      .flatMap(c => Seq(c.nameIn1, c.nameIn2)).toSet
    val manyCols = cfg.columns.filter(_.kind == AttrKind.Title)
      .flatMap(c => Seq(c.nameIn1, c.nameIn2)).toSet
    Map(
      "MA" -> QualityTests.matchAttribute(data, nPerKind, params.seed + 1),
      "MR" -> QualityTests.matchRow(data, nPerKind, params.seed + 2),
      "MC" -> QualityTests.matchConcept(data, oneCols, manyCols, strat, nPerKind, params.seed + 3),
    )
  }

  def scoreQuality(model: EmbeddingModel,
                   tests: Map[String, Seq[QualityTests.QTest]]): QualityScores =
    QualityScores(
      QualityTests.evaluate(model, tests("MA"), 11L),
      QualityTests.evaluate(model, tests("MR"), 12L),
      QualityTests.evaluate(model, tests("MC"), 13L))

  final case class QualityRow(shorthand: String, method: String, scores: QualityScores) {
    def render: String = f"$shorthand%-4s $method%-9s ${scores.render}"
  }

  /** Table 2: Basic, Node2Vec, Harp and EmbDI scored on the same test sets
    * per scenario; the pre-trained footnote for BB and AG (§7.1 reports .33
    * and .16 averages) where they run; each method's mean over scenarios. */
  def table2(bs: Seq[Bundle]): Table[QualityRow] = {
    val perScenario = bs.map { b =>
      val tests = qualityTests(b)
      Seq("Basic" -> b.basic.model, "Node2Vec" -> b.node2vec.model, "Harp" -> b.harp.model,
          "EmbDI" -> b.embdiO.model)
        .map { case (method, model) => QualityRow(b.shorthand, method, scoreQuality(model, tests)) }
    }
    val pretrained = Seq("BB", "AG").flatMap(s => bs.find(_.shorthand == s)).map(b =>
      QualityRow(b.shorthand, "Pretrain", scoreQuality(b.pretrained, qualityTests(b))))
    val means = meanRow(perScenario.map(rs =>
      FRow(rs.head.shorthand, rs.map(r => r.method -> r.scores.avg))))
    Table(perScenario.flatten, (perScenario.flatten ++ pretrained).map(_.render) :+ means.render)
  }

  // ----------------------------------------------------------------- Table 3

  /** F-measures of several methods on one scenario (Tables 3 and 4). */
  final case class FRow(shorthand: String, scores: Seq[(String, Double)]) {
    def render: String =
      f"$shorthand%-4s " + scores.map { case (n, f) => f"$n=$f%.2f" }.mkString(" ")
  }

  /** Each method's mean score over `rows`, in the rows' method order. */
  private def meanRow(rows: Seq[FRow]): FRow = FRow("MEAN", rows.head.scores.map { case (m, _) =>
    m -> rows.map(_.scores.toMap.apply(m)).sum / rows.size })

  /** Rows of F-measures, then their means (Tables 3 and 4). */
  private def fTable(rows: Seq[FRow]): Table[FRow] =
    Table(rows, rows.map(_.render) :+ meanRow(rows).render)

  /** Schema-matching F for one method's embeddings via Algorithm 5. */
  def smScore(b: Bundle, model: EmbeddingModel): PRF = {
    val got = SchemaMatcher.toColumnPairs(SchemaMatcher.matchCids(model,
      b.scenario.columns1.map(NodeNames.cid(1, _)),
      b.scenario.columns2.map(NodeNames.cid(2, _)))).toSet
    Metrics.prf(got, b.scenario.colMatches.toSet)
  }

  def table3(bs: Seq[Bundle]): Table[FRow] = fTable(bs.map { b =>
    val Seq(r1, r2) = b.relations
    def f1(got: Seq[(String, String)]) = Metrics.prf(got.toSet, b.scenario.colMatches.toSet).f1
    FRow(b.shorthand, Seq(
      "Base"     -> f1(SchemaMatcher.matchBase(r1, r2)),
      "EmbDI"    -> smScore(b, b.embdiO.model).f1,
      "Node2Vec" -> smScore(b, b.node2vec.model).f1,
      "Harp"     -> smScore(b, b.harp.model).f1,
      "SeepP"    -> f1(Seep.runPretrained(r1, r2)),
      "SeepL"    -> f1(Seep.runLocal(r1, r2, b.embdiO.model, Tokenization.Overlap(b.shared))),
    ))
  })

  // ----------------------------------------------------------------- Table 4

  /** Unsupervised ER F via Algorithm 6. Protocol: the query side is the set
    * of D1 rows that have a ground-truth match ("we assume that no matches
    * for Ri are present in D1" — unmatched rows are not queried), candidates
    * are all of D2; mutual matching with n_top lists. This is the only
    * protocol consistent with the paper's P/R ranges on benchmarks where
    * >90% of rows are unmatched (e.g. BB: P=.93 at n_top=1). */
  def erScore(spark: SparkSession, b: Bundle, model: EmbeddingModel,
              nTop: Int = params.nTop): PRF = {
    val queryRids = b.groundTruth.map(_._1).toSeq.sorted.map(NodeNames.rid)
      .filter(model.contains)
    val targets = EntityResolver.ridsIn(model, b.ridRange2._1, b.ridRange2._2)
    val pairs = EntityResolver.matchRids(spark, model, queryRids, targets, nTop)
      .map { case (a, c) => (NodeNames.ridValue(a), NodeNames.ridValue(c)) }
    Metrics.prf(pairs.toSet, b.groundTruth)
  }

  /** Supervised DeepER at its default 5 % of the matches as labels. */
  def deepEr(spark: SparkSession, b: Bundle, model: EmbeddingModel,
             strategy: Tokenization.Strategy, tuned: Boolean): PRF =
    DeepER.run(spark, b.relations(0), b.relations(1), b.scenario.colMatches, model,
      strategy, b.groundTruth, b.scenario.candidates,
      DeepER.Config(tuned = tuned, seed = params.seed))

  /** Table 4: unsupervised ER (Algorithm 6, n_top = 10) per embedding,
    * then supervised DeepER with pre-trained vs EmbDI embeddings. */
  def table4(spark: SparkSession, bs: Seq[Bundle]): Table[FRow] = fTable(bs.map { b =>
    val strat = Tokenization.Overlap(b.shared)
    FRow(b.shorthand, Seq(
      "fastText" -> erScore(spark, b, b.pretrained).f1,
      "EmbDI-S"  -> erScore(spark, b, b.embdiS.model).f1,
      "EmbDI-F"  -> erScore(spark, b, b.embdiF.model).f1,
      "EmbDI-O"  -> erScore(spark, b, b.embdiO.model).f1,
      "Node2Vec" -> erScore(spark, b, b.node2vec.model).f1,
      "Harp"     -> erScore(spark, b, b.harp.model).f1,
      "DeepERP"  -> deepEr(spark, b, b.pretrained, Tokenization.Flatten, tuned = false).f1,
      "DeepERL"  -> deepEr(spark, b, b.embdiO.model, strat, tuned = false).f1,
      "DeepERPt" -> deepEr(spark, b, b.pretrained, Tokenization.Flatten, tuned = true).f1,
      "DeepERLt" -> deepEr(spark, b, b.embdiO.model, strat, tuned = true).f1,
    ))
  })

  // ----------------------------------------------------------------- Table 5

  /** The scenarios the paper reports in Table 5. */
  val table5Scenarios: Seq[String] = Seq("AG", "BB", "DA", "IA", "IM", "WA")

  final case class NTopRow(shorthand: String, nTop: Int, prf: PRF) {
    def render: String = f"$shorthand%-4s ntop=$nTop%-4d $prf"
  }

  def table5Rows(spark: SparkSession, b: Bundle): Seq[NTopRow] =
    Seq(1, 5, 10, 100).map(k =>
      NTopRow(b.shorthand, k, erScore(spark, b, b.embdiO.model, nTop = k)))

  // -------------------------------------------------------- token matching

  final case class TokenMatchRow(col1: String, col2: String, pretrained: Double,
                                 jaccard: Double, embdi: Double, gtSize: Int) {
    def render: String =
      f"$col1%-10s/$col2%-13s pretrained=$pretrained%.2f jaccard=$jaccard%.2f " +
      f"embdi=$embdi%.2f (|gt|=$gtSize)"
  }

  /** §7.2 token matching on IM, one row per aligned column pair holding the
    * same entities in different formats. View 2 mixes codes and full names,
    * so the ground truth is restricted to tokens that actually occur and
    * predictions to tokens in the ground truth. */
  def tokenMatchingRows(b: Bundle): Seq[TokenMatchRow] =
    b.scenario.tokenMatchGt.map { case ((c1, c2), gtAll) =>
      val dom1 = TokenMatcher.domain(b.relations(0), c1)
      val dom2 = TokenMatcher.domain(b.relations(1), c2)
      val gt = gtAll.filter { case (f, c) => dom1.contains(f) && dom2.contains(c) }
      val inGt = gt.map(_._1).toSet
      def f1(pred: Seq[(String, String)]) = TokenMatcher.score(pred.filter(p => inGt(p._1)), gt).f1
      TokenMatchRow(c1, c2, f1(TokenMatcher.matchByEmbedding(b.pretrained, dom1, dom2)),
        f1(TokenMatcher.matchByJaccard(dom1, dom2)),
        f1(TokenMatcher.matchByEmbedding(b.embdiO.model, dom1, dom2)), gt.size)
    }.toSeq

  // ------------------------------------------------------------ geometry

  /** The RID-space geometry behind ER, per model: the mean cosine of the
    * ground-truth duplicate pairs and of 2,000 random D1 × D2 pairs, and of
    * the first 100 ground-truth pairs, how many have the match as the
    * query's nearest D2 RID. */
  final case class GeomRow(shorthand: String, model: String, gtCos: Double,
                           randCos: Double, top1Hits: Int) {
    def render: String =
      f"$shorthand%-4s $model%-10s gtCos=$gtCos%.3f randCos=$randCos%.3f top1hit=$top1Hits%d/100"
  }

  /** [[GeomRow]]s of the pre-trained stand-in and EmbDI-O on a dataset pair. */
  def geometry(b: Bundle): Seq[GeomRow] =
    Seq("Pretrain" -> b.pretrained, "EmbDI-O" -> b.embdiO.model).map { case (name, m) =>
      def cos(a: Long, c: Long): Option[Double] = m.cosine(NodeNames.rid(a), NodeNames.rid(c))
      def mean(xs: Seq[Double]): Double = xs.sum / xs.size
      val gt = b.groundTruth.toSeq.sorted
      val (r1, r2) = (b.ridRange1, b.ridRange2)
      val rng = new scala.util.Random(1)
      val randCos = (0 until 2000).flatMap { _ =>
        cos(r1._1 + rng.nextLong(r1._2 - r1._1), r2._1 + rng.nextLong(r2._2 - r2._1))
      }
      val rids2 = (r2._1 until r2._2).map(NodeNames.rid).filter(m.contains)
      val queries = gt.take(100).filter(p => m.contains(NodeNames.rid(p._1))).toIndexedSeq
      val best = NearestNeighbors.rankNames(m, queries.map(p => NodeNames.rid(p._1)), rids2, 1)
      val hits = queries.indices.count(q =>
        best(q).headOption.exists(i => rids2(i) == NodeNames.rid(queries(q)._2)))
      GeomRow(b.shorthand, name, mean(gt.flatMap { case (a, c) => cos(a, c) }), mean(randCos), hits)
    }

  // ----------------------------------------------------------------- Table 6

  /** EmbDI-O's G/W/E, node2vec's and HARP's W+E, and a re-read of the tables (s). */
  final case class TimingRow(shorthand: String, graphMs: Long, walkMs: Long,
                             trainMs: Long, n2vMs: Long, harpMs: Long, readS: Double) {
    def render: String =
      f"$shorthand%-4s G=${graphMs / 1000.0}%7.1f W=${walkMs / 1000.0}%7.1f " +
      f"E=${trainMs / 1000.0}%7.1f W+E=${(walkMs + trainMs) / 1000.0}%7.1f " +
      f"N2V=${n2vMs / 1000.0}%8.1f HARP=${harpMs / 1000.0}%8.1f read=$readS%5.2f"
  }

  /** Timed repeats of EmbDI-O per Table 6 row. */
  private val TimingRepeats = 3

  /** Table 6: the timing rows, then the G/W/E shares of their total. G, W
    * and E are each the median of [[TimingRepeats]] runs of the bundle's
    * EmbDI-O configuration after its first (lazy) training, and every
    * repeat must train the same model. */
  def table6(bs: Seq[Bundle]): Table[TimingRow] = {
    val rows = bs.map { b =>
      val first = b.embdiO.model
      val runs = Seq.fill(TimingRepeats)(EmbDI.run(b.relations, b.embdiOConfig))
      require(runs.forall(r => r.model.words.sameElements(first.words) &&
        r.model.vectors.corresponds(first.vectors)(java.util.Arrays.equals(_, _))),
        s"${b.shorthand}: a repeated EmbDI-O training gave a different model")
      def median(f: EmbDI.Timings => Long): Long = runs.map(r => f(r.timings)).sorted.apply(runs.size / 2)
      val t = EmbDI.Timings(median(_.graphMs), median(_.walkMs), median(_.trainMs))
      val n2vMs = b.node2vec.walkMs + b.node2vec.trainMs
      val harpMs = b.harp.walkMs + b.harp.trainMs
      val t0 = System.nanoTime()
      b.tables.foreach(Relation.read)
      TimingRow(b.shorthand, t.graphMs, t.walkMs, t.trainMs, n2vMs, harpMs, (System.nanoTime() - t0) / 1e9)
    }
    val Seq(g, w, e) =
      Seq[TimingRow => Long](_.graphMs, _.walkMs, _.trainMs).map(f => rows.map(f).sum.toDouble)
    def pct(x: Double) = x / (g + w + e) * 100
    Table(rows, rows.map(_.render) :+ f"SHARE G=${pct(g)}%.1f%% W=${pct(w)}%.1f%% E=${pct(e)}%.1f%%")
  }
}
