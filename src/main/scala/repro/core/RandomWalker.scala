package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.reflect.ClassTag
import scala.util.Random

/** Sentence construction via random walks (§4.2, Algorithm 2) with the §5.1
  * budget / overlap-start heuristics and the §5.3 node-replacement hook.
  *
  * [[walkCorpus]] is the one corpus driver behind EmbDI, node2vec
  * ([[Node2VecWalker]]) and HARP (`repro.baselines.Harp`): each of them only
  * supplies how one sentence is built from a start node.
  */
object RandomWalker {

  /** Which nodes get a walk budget. */
  sealed trait StartStrategy
  /** Every node starts walks — the single-relation default. */
  case object AllNodes extends StartStrategy
  /** §5.1 imbalance heuristic: only tokens occurring in *both* datasets
    * (the bridge nodes) start walks. */
  final case class OverlapTokens(shared: Set[String]) extends StartStrategy

  final case class WalkConfig(
      walkLength: Int = 60,
      /** Total corpus size in tokens; the number of walks is
        * `corpusTokens / walkLength`, split evenly over start nodes with a
        * guaranteed budget of ≥ 1 walk per start node (§4.2). */
      corpusTokens: Long = 1_000_000L,
      startStrategy: StartStrategy = AllNodes,
      /** Algorithm 2 prepends a neighboring RID to walks from a token; §5.1
        * widens the pick to "RID or CID" to strengthen bridge evidence (set
        * when using the overlap start strategy). */
      firstStepOrCid: Boolean = false,
      /** §5.3 emission-time replacement: node name → (replacement, prob).
        * The walk itself keeps stepping from the original node. */
      replacements: Map[String, (String, Double)] = Map.empty,
      seed: Long = 1234L,
  )

  /** Ids of the nodes that receive a walk budget under `strategy`. */
  def startNodes(graph: CompactGraph, strategy: StartStrategy): Array[Int] =
    strategy match {
      case AllNodes => Array.range(0, graph.numNodes).filter(graph.degree(_) > 0)
      case OverlapTokens(shared) =>
        graph.nodeIdsOfType(0).filter(i => graph.degree(i) > 0 && shared.contains(graph.names(i)))
    }

  /** A uniform walk of `length` nodes (at least one) from `start`. */
  private[repro] def uniformWalk(graph: CompactGraph, start: Int, length: Int,
                                 rng: Random): Array[Int] = {
    val out = new Array[Int](math.max(length, 1))
    out(0) = start
    var i = 1
    while (i < out.length) {
      out(i) = graph.randomNeighbor(out(i - 1), rng)
      i += 1
    }
    out
  }

  /** One EmbDI walk from `start`, as node ids (before replacement): a walk
    * from a token opens with a neighboring RID (or CID) first. */
  private[repro] def walkFrom(graph: CompactGraph, start: Int, cfg: WalkConfig,
                             rng: Random): Array[Int] =
    if (graph.isToken(start)) {
      val first = graph.randomNeighborOfKind(start, rng, orCid = cfg.firstStepOrCid)
      first +: uniformWalk(graph, start, cfg.walkLength - 1, rng)
    } else uniformWalk(graph, start, cfg.walkLength, rng)

  /** Render a walk into a sentence, applying emission-time replacement. */
  private[repro] def emit(graph: CompactGraph, walk: Array[Int], cfg: WalkConfig,
                         rng: Random): Array[String] =
    walk.map { id =>
      val name = graph.names(id)
      cfg.replacements.get(name) match {
        case Some((repl, p)) if rng.nextDouble() < p => repl
        case _ => name
      }
    }

  /** The walk corpus as a DataFrame with one `sentence` column of
    * `array<string>` — the shape `EmbeddingTrainer.train` consumes.
    *
    * The budget is `max(#starts, corpusTokens / walkLength)` walks, split
    * evenly with at least one walk per start node. `payload` (the graph) is
    * broadcast, the start ids are an RDD, and walk `w` from `start` builds
    * its sentence with an RNG seeded by `(seed, seedOffset + start, w)` only.
    * The collected corpus is therefore the sentences of starts × walks in
    * that order, whatever the partitioning. */
  private[repro] def walkCorpus[P: ClassTag](spark: SparkSession, payload: P, starts: Array[Int],
      corpusTokens: Long, walkLength: Int, seed: Long, seedOffset: Long = 0L)(
      sentence: (P, Int, Random) => Array[String]): DataFrame = {
    import spark.implicits._
    require(starts.nonEmpty, "no start nodes — empty graph or empty overlap set")
    val totalWalks = math.max(starts.length.toLong, corpusTokens / walkLength)
    val perNode = math.max(1L, totalWalks / starts.length).toInt
    val bp = spark.sparkContext.broadcast(payload)
    spark.sparkContext.parallelize(starts.toIndexedSeq, 16)
      .flatMap { start =>
        val p = bp.value
        // Mixed seeds, so nearby start ids give uncorrelated walks.
        (0 until perNode).iterator.map(w => sentence(p, start, Rand.of(seed, seedOffset + start, w.toLong)))
      }
      .toDF("sentence")
  }

  /** EmbDI's corpus (Algorithm 2) over `graph`. */
  def corpus(spark: SparkSession, graph: CompactGraph, cfg: WalkConfig): DataFrame =
    walkCorpus(spark, graph, startNodes(graph, cfg.startStrategy), cfg.corpusTokens,
      cfg.walkLength, cfg.seed) { (g, start, rng) => emit(g, walkFrom(g, start, cfg, rng), cfg, rng) }

  /** Paper's corpus-size rule of thumb (§7.3):
    * `#corpus tokens = (#distinct values + #rows) * factor` (paper uses
    * factor 1000; benches default to 100 — see DESIGN.md §3). */
  def corpusTokensRule(nDistinctValues: Long, nRows: Long, factor: Long): Long =
    (nDistinctValues + nRows) * factor
}
