package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The EmbDI meta-algorithm (Algorithm 3): graph construction → sentence
  * construction → embedding construction, with the wall-clock breakdown the
  * paper reports in Table 6 (G / W / E).
  */
object EmbDI {

  final case class Config(
      strategy: Tokenization.Strategy = Tokenization.Flatten,
      walk: RandomWalker.WalkConfig = RandomWalker.WalkConfig(),
      w2v: EmbeddingTrainer.W2VConfig = EmbeddingTrainer.W2VConfig(),
      /** Corpus-size rule factor, at least 1: the walks emit
        * `(#distinct values + #rows) * factor` tokens (§7.3), whatever
        * `walk.corpusTokens` says. */
      corpusFactor: Long = 100L,
  ) {
    /** Significant figures of numeric cells: always [[Tokenization.SigFigs]]. */
    def sigFigs: Int = Tokenization.SigFigs
  }

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
    * set by computing the shared values of the first two relations (read
    * only then). */
  private def resolveStrategy(relations: => Seq[Relation],
                              strategy: Tokenization.Strategy): Tokenization.Strategy =
    strategy match {
      case Tokenization.Overlap(s) if s.isEmpty => relations match {
        case r1 +: r2 +: _ => Tokenization.Overlap(Tokenization.sharedValues(r1, r2))
        case _ => strategy
      }
      case other => other
    }

  /** [[resolveStrategy]] over datasets, each read once if the shared set is
    * needed. `sigFigs` must be [[Tokenization.SigFigs]]. */
  def resolveStrategy(spark: SparkSession, datasets: Seq[DataFrame],
                      strategy: Tokenization.Strategy, sigFigs: Int): Tokenization.Strategy = {
    require(sigFigs == Tokenization.SigFigs,
      s"cells are rounded to ${Tokenization.SigFigs} significant figures, not $sigFigs")
    resolveStrategy(datasets.map(Relation.read), strategy)
  }

  /** Check that no `__rid` occurs twice across `relations` and none is NULL
    * (two rows with one id would silently merge into one RID node). */
  private def requireUniqueRids(relations: Seq[Relation]): Unit = {
    val rids = relations.flatMap(_.rids).toArray.sorted
    val repeats = rids.indices.filter(i => i > 0 && rids(i) == rids(i - 1))
    val nMissing = repeats.size + relations.map(_.nullRids).sum
    require(nMissing == 0,
      s"__rid must be unique across the input datasets: $nMissing rows repeat " +
        s"an id (or have none), e.g. ${repeats.map(rids).distinct.take(5).mkString(", ")}")
  }

  /** [[run]] over datasets (each with a globally unique `__rid` column),
    * each read once. */
  def run(spark: SparkSession, datasets: Seq[DataFrame], cfg: Config = Config()): Result =
    run(datasets.map(Relation.read), cfg)

  /** Run the full pipeline over one or more relations. The graph, the `__rid`
    * check and the corpus-size statistics all come from them; G times
    * tokenization, graph and CSR, not the reads. */
  def run(relations: Seq[Relation], cfg: Config): Result = {
    require(relations.nonEmpty)
    require(cfg.corpusFactor >= 1, s"corpusFactor must be at least 1, got ${cfg.corpusFactor}")

    val (graph, graphMs) = timed {
      requireUniqueRids(relations)
      TripartiteGraph.build(relations, resolveStrategy(relations, cfg.strategy))
    }

    // Input statistics for the corpus-size rule, from the relations above.
    val nDistinct = relations.map(Tokenization.values).reduce(_ ++ _).size.toLong
    val nRows = relations.map(_.nRows.toLong).sum
    val walkCfg = cfg.walk.copy(
      corpusTokens = RandomWalker.corpusTokensRule(nDistinct, nRows, cfg.corpusFactor))

    val t = EmbeddingTrainer.walkThenTrain(RandomWalker.sentences(graph, walkCfg), cfg.w2v)
    Result(t.model, graph, t.nSentences, nDistinct, Timings(graphMs, t.walkMs, t.trainMs))
  }
}
