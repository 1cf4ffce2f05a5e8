package repro.baselines

import repro.core.{CompactGraph, RandomWalker}

import scala.util.Random

/** The HARP baseline of §7 (Chen et al., AAAI'18), rebuilt as a
  * multi-granularity walk corpus (DESIGN.md §3).
  *
  * HARP coarsens the graph into a hierarchy (edge collapsing), learns
  * embeddings at the coarsest level, and warm-starts each finer level from
  * its parent. `EmbeddingTrainer` has no warm start, so we keep the
  * hierarchy but substitute the transfer mechanism: walks are generated at
  * *every* level, supernodes are expanded to uniformly-drawn members at
  * emission, and a single word2vec trains over the combined corpus — fine
  * nodes still receive the higher-order structural context of their
  * supernode neighborhoods, which is the property HARP adds over plain
  * walks.
  */
object Harp {

  final case class Config(
      corpusTokens: Long = 1_000_000L,
      walkLength: Int = 60,
      seed: Long = 5555L,
  )

  /** Coarsenings below the input graph. */
  private[repro] val Levels = 2

  /** One coarsening step by randomized maximal edge matching.
    * Returns (coarse graph, fine-node-id → coarse-node-id). Each coarse node
    * takes its representative's name and kind, and coarse ids follow the
    * representatives' fine ids; a representative left without a coarse edge
    * stays as a node of degree 0. */
  private[repro] def coarsen(g: CompactGraph, seed: Long): (CompactGraph, Array[Int]) = {
    val rng = new Random(seed)
    val match_ = Array.fill(g.numNodes)(-1)
    // Visit nodes in random order; match each unmatched node to a random
    // unmatched neighbor (edge collapsing).
    val order = rng.shuffle((0 until g.numNodes).toVector)
    order.foreach { u =>
      if (match_(u) < 0 && g.degree(u) > 0) {
        val nbrs = g.neighborsOf(u).filter(match_(_) < 0)
        if (nbrs.nonEmpty) {
          val v = nbrs(rng.nextInt(nbrs.length))
          match_(u) = u; match_(v) = u // u is the representative
        }
      }
    }
    (0 until g.numNodes).foreach(u => if (match_(u) < 0) match_(u) = u)
    val reps = Array.range(0, g.numNodes).filter(u => match_(u) == u)
    val coarseOf = new Array[Int](g.numNodes)
    reps.indices.foreach(c => coarseOf(reps(c)) = c)
    val mapping = match_.map(coarseOf)
    val arcs = Array.range(0, g.numNodes).flatMap { u =>
      g.neighborsOf(u).collect { case v if mapping(v) != mapping(u) => CompactGraph.arc(mapping(u), mapping(v)) }
    }
    (CompactGraph.fromArcs(reps.map(g.names), reps.map(g.types), arcs), mapping)
  }

  /** The combined walk corpus over `g0` and its [[Levels]] coarsenings,
    * each level with an equal share of the token budget. Walks are uniform
    * (no first-step RID) and each supernode is written as a member drawn
    * with the walk's own RNG; level `l` seeds its walks at start-id offset
    * `l · 1 000 003`, so levels never share a walk seed. */
  def corpus(g0: CompactGraph, cfg: Config): Array[Array[String]] = {
    // Build the hierarchy with the fine-node → level-node mapping per level.
    val graphs = (1 to Levels).scanLeft((g0, Array.range(0, g0.numNodes))) {
      case ((g, fineToLevel), lvl) =>
        val (coarse, m) = coarsen(g, cfg.seed + lvl)
        (coarse, fineToLevel.map(m))
    }
    graphs.zipWithIndex.map { case ((g, fineMap), lvlIdx) =>
      // Member lists: fine node names per level-node id.
      val members: Array[Array[String]] = {
        val acc = Array.fill(g.numNodes)(List.empty[String])
        (0 until g0.numNodes).foreach { u => acc(fineMap(u)) ::= g0.names(u) }
        acc.map(_.toArray)
      }
      RandomWalker.walkCorpus(RandomWalker.startNodes(g, RandomWalker.AllNodes),
        cfg.corpusTokens / graphs.size, cfg.walkLength, cfg.seed, seedOffset = lvlIdx.toLong * 1_000_003L) {
        (start, rng) =>
          RandomWalker.uniformWalk(g, start, cfg.walkLength, rng).map { id =>
            val m = members(id)
            m(rng.nextInt(m.length))
          }
      }
    }.reduce(_ ++ _)
  }
}
