package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The Node2Vec baseline of §7: node2vec's second-order biased walks
  * (Grover & Leskovec, KDD'16) over the same tripartite graph ("given our
  * graph as input, it learns vectors for all nodes"), then the same word2vec
  * training (`EmbeddingTrainer.walkThenTrain`). Default p = q = 1 as in the
  * node2vec paper's defaults.
  *
  * Transition weight from `cur` to candidate `x` given previous node `prev`:
  * `1/p` if `x == prev`, `1` if `x` is a neighbor of `prev`, `1/q` otherwise.
  * Sampling uses rejection sampling against the max weight, which draws from
  * exactly the normalized bias distribution without alias tables.
  */
object Node2VecWalker {

  final case class N2VConfig(
      walkLength: Int = 60,
      corpusTokens: Long = 1_000_000L,
      p: Double = 1.0,
      q: Double = 1.0,
      seed: Long = 4321L,
  )

  /** Rejected candidates after which a step gives up (see [[walkFrom]]). */
  private val MaxTries = 1000

  private[core] def walkFrom(graph: CompactGraph, start: Int, cfg: N2VConfig,
                             rng: Random): Array[Int] = {
    val out = new ArrayBuffer[Int](cfg.walkLength)
    out += start
    if (graph.degree(start) == 0) return out.toArray
    var prev = -1
    var cur = start
    val wMax = math.max(1.0, math.max(1.0 / cfg.p, 1.0 / cfg.q))
    while (out.length < cfg.walkLength) {
      var next = -1
      if (prev < 0) next = graph.randomNeighbor(cur, rng)
      else {
        // Rejection-sample the second-order distribution.
        var accepted = false
        var guard = 0
        while (!accepted) {
          val cand = graph.randomNeighbor(cur, rng)
          val w =
            if (cand == prev) 1.0 / cfg.p
            else if (graph.hasEdge(prev, cand)) 1.0
            else 1.0 / cfg.q
          guard += 1
          if (rng.nextDouble() * wMax <= w) { next = cand; accepted = true }
          else if (guard >= MaxTries)
            // Accepting anyway would bias the walk; p or q is too extreme
            // for rejection sampling at this node.
            throw new IllegalStateException(s"node2vec step from ${graph.names(cur)} rejected " +
              s"$MaxTries candidates in a row (p = ${cfg.p}, q = ${cfg.q})")
        }
      }
      out += next
      prev = cur
      cur = next
    }
    out.toArray
  }

  /** Walk corpus from every connected node, through
    * [[RandomWalker.walkCorpus]]. */
  def corpus(graph: CompactGraph, cfg: N2VConfig): Array[Array[String]] =
    RandomWalker.walkCorpus(RandomWalker.startNodes(graph, RandomWalker.AllNodes),
      cfg.corpusTokens, cfg.walkLength, cfg.seed) { (start, rng) =>
      walkFrom(graph, start, cfg, rng).map(graph.names)
    }
}
