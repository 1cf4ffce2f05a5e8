package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import java.util.stream.IntStream

import scala.util.Random

/** Sentence construction via random walks (§4.2, Algorithm 2) with the §5.1
  * budget / overlap-start heuristics and the §5.3 node-replacement hook.
  *
  * [[walkCorpus]] is the one corpus driver behind EmbDI, node2vec
  * ([[uniformCorpus]]) and HARP (`repro.baselines.Harp`): each of them only
  * supplies how one sentence is built from a start node.
  */
object RandomWalker {

  /** Which nodes get a walk budget. */
  sealed trait StartStrategy
  /** Every node starts walks — the single-relation default. */
  case object AllNodes extends StartStrategy
  /** §5.1 imbalance heuristic: only tokens occurring in *both* datasets
    * (the bridge nodes) start walks, each opening with a RID *or CID* of it. */
  final case class OverlapTokens(shared: Set[String]) extends StartStrategy

  final case class WalkConfig(
      walkLength: Int = 60,
      /** Total corpus size in tokens; the number of walks is
        * `corpusTokens / walkLength`, split evenly over start nodes with a
        * guaranteed budget of ≥ 1 walk per start node (§4.2). */
      corpusTokens: Long = 1_000_000L,
      startStrategy: StartStrategy = AllNodes,
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
    * from a token opens with a neighboring RID, or RID or CID (§5.1) first. */
  private[repro] def walkFrom(graph: CompactGraph, start: Int, cfg: WalkConfig,
                             rng: Random): Array[Int] =
    if (graph.isToken(start)) {
      val first = graph.randomNeighborOfKind(start, rng, cfg.startStrategy.isInstanceOf[OverlapTokens])
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

  /** A walk corpus, built on the driver where the trainer runs.
    *
    * The budget is `max(#starts, corpusTokens / walkLength)` walks, split
    * evenly with at least one walk per start node. Walk `w` from `starts(i)`
    * builds its sentence with an RNG seeded by `(seed, seedOffset + start, w)`
    * only and fills slot `i · perNode + w`, so the corpus is the sentences of
    * starts × walks in that order, however the slots are spread over the
    * driver's cores. */
  private[repro] def walkCorpus(starts: Array[Int], corpusTokens: Long, walkLength: Int,
      seed: Long, seedOffset: Long = 0L)(
      sentence: (Int, Random) => Array[String]): Array[Array[String]] = {
    require(starts.nonEmpty, "no start nodes — empty graph or empty overlap set")
    require(walkLength >= 2, s"walkLength must be at least 2, got $walkLength")
    val totalWalks = math.max(starts.length.toLong, corpusTokens / walkLength)
    val perNode = math.max(1L, totalWalks / starts.length).toInt
    require(starts.length.toLong * perNode <= Int.MaxValue,
      s"${starts.length} start nodes x $perNode walks do not fit in one array")
    val out = new Array[Array[String]](starts.length * perNode)
    IntStream.range(0, out.length).parallel().forEach { k =>
      val start = starts(k / perNode)
      // Mixed seeds, so nearby start ids give uncorrelated walks.
      out(k) = sentence(start, Rand.of(seed, seedOffset + start, (k % perNode).toLong))
    }
    out
  }

  /** EmbDI's corpus (Algorithm 2) over `graph`. */
  def sentences(graph: CompactGraph, cfg: WalkConfig): Array[Array[String]] =
    walkCorpus(startNodes(graph, cfg.startStrategy), cfg.corpusTokens, cfg.walkLength,
      cfg.seed) { (start, rng) => emit(graph, walkFrom(graph, start, cfg, rng), cfg, rng) }

  /** The Node2Vec baseline of §7: uniform walks from every connected node,
    * as node names. This is node2vec's walk (Grover & Leskovec, KDD'16) at
    * its default p = q = 1, where every second-order weight is 1, i.e.
    * DeepWalk's first-order walk. */
  def uniformCorpus(graph: CompactGraph, corpusTokens: Long, walkLength: Int,
                    seed: Long): Array[Array[String]] =
    walkCorpus(startNodes(graph, AllNodes), corpusTokens, walkLength, seed) { (start, rng) =>
      uniformWalk(graph, start, walkLength, rng).map(graph.names)
    }

  /** [[sentences]] as a `sentence: array<string>` DataFrame; kept only for
    * the `perfbench/` harness. */
  def corpus(spark: SparkSession, graph: CompactGraph, cfg: WalkConfig): DataFrame = {
    import spark.implicits._
    sentences(graph, cfg).toSeq.toDF("sentence")
  }

  /** Paper's corpus-size rule of thumb (§7.3):
    * `#corpus tokens = (#distinct values + #rows) * factor` (paper uses
    * factor 1000; benches default to 100 — see DESIGN.md §3). */
  def corpusTokensRule(nDistinctValues: Long, nRows: Long, factor: Long): Long =
    (nDistinctValues + nRows) * factor
}
