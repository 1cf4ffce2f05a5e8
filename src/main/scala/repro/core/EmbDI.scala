package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, count, countDistinct, lit}
import org.apache.spark.storage.StorageLevel

/** The EmbDI meta-algorithm (Algorithm 3): graph construction → sentence
  * construction → embedding construction, with the wall-clock breakdown the
  * paper reports in Table 6 (G / W / E).
  */
object EmbDI {

  final case class Config(
      strategy: Tokenization.Strategy = Tokenization.Flatten,
      sigFigs: Int = 4,
      walk: RandomWalker.WalkConfig = RandomWalker.WalkConfig(),
      w2v: EmbeddingTrainer.W2VConfig = EmbeddingTrainer.W2VConfig(),
      /** Corpus-size rule factor; when > 0 overrides `walk.corpusTokens`
        * with `(#distinct values + #rows) * factor` (§7.3). */
      corpusFactor: Long = 100L,
  )

  final case class Timings(graphMs: Long, walkMs: Long, trainMs: Long)

  final case class Result(
      model: EmbeddingModel,
      graph: CompactGraph,
      nSentences: Long,
      nDistinctValues: Long,
      timings: Timings,
  )

  private def timed[T](f: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1_000_000L)
  }

  /** Resolve an `Overlap` strategy that was constructed with an empty shared
    * set by computing the shared values of the first two datasets. */
  def resolveStrategy(spark: SparkSession, datasets: Seq[DataFrame],
                      strategy: Tokenization.Strategy, sigFigs: Int): Tokenization.Strategy =
    strategy match {
      case Tokenization.Overlap(s) if s.isEmpty && datasets.size >= 2 =>
        Tokenization.Overlap(Tokenization.sharedValues(spark, datasets(0), datasets(1), sigFigs))
      case other => other
    }

  /** The number of rows of `datasets`, after checking in one pass over their
    * `__rid` columns that no id occurs twice (two rows with one id would
    * silently merge into one RID node). */
  private def uniqueRows(datasets: Seq[DataFrame]): Long = {
    val rids = datasets.map(_.select(col("__rid"))).reduce(_ union _)
    val r = rids.agg(count(lit(1)), countDistinct(col("__rid"))).head()
    val (nRows, nDistinct) = (r.getLong(0), r.getLong(1))
    require(nRows == nDistinct, {
      val dups = rids.groupBy("__rid").count().filter(col("count") > 1)
        .orderBy("__rid").limit(5).collect().map(_.get(0))
      s"__rid must be unique across the input datasets: ${nRows - nDistinct} rows repeat " +
        s"an id (or have none), e.g. ${dups.mkString(", ")}"
    })
    nRows
  }

  /** Run the full pipeline over one or more datasets (each with a globally
    * unique `__rid` column). */
  def run(spark: SparkSession, datasets: Seq[DataFrame], cfg: Config = Config()): Result = {
    require(datasets.nonEmpty)

    val strategy = resolveStrategy(spark, datasets, cfg.strategy, cfg.sigFigs)

    val (graph, graphMs) = timed {
      val edges = TripartiteGraph.edges(spark, datasets, strategy, cfg.sigFigs)
        .persist(StorageLevel.MEMORY_AND_DISK)
      val g = CompactGraph.fromEdges(edges)
      edges.unpersist()
      g
    }

    // Input statistics for the corpus-size rule — not part of the graph
    // construction time the paper reports as G.
    import spark.implicits._
    val nDistinct = datasets.map(Tokenization.cells(spark, _)).reduce(_ union _)
      .flatMap(v => Tokenization.normalize(v, cfg.sigFigs)).distinct().count()
    val nRows = uniqueRows(datasets)
    val corpusTokens =
      if (cfg.corpusFactor > 0) RandomWalker.corpusTokensRule(nDistinct, nRows, cfg.corpusFactor)
      else cfg.walk.corpusTokens
    val walkCfg = cfg.walk.copy(corpusTokens = corpusTokens)

    val t = EmbeddingTrainer.walkThenTrain(RandomWalker.sentences(graph, walkCfg), cfg.w2v)
    Result(t.model, graph, t.nSentences, nDistinct, Timings(graphMs, t.walkMs, t.trainMs))
  }
}
