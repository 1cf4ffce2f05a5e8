package repro.core

import org.apache.spark.sql.DataFrame

import scala.util.Random

/** Immutable CSR adjacency of the tripartite graph, walked on the driver
  * (DESIGN.md §2). Serializable for the Spark walk drivers kept as test
  * references.
  *
  * Node ids are dense ints; `names(i)` / `types(i)` give the node name and
  * kind, `neighbors(offsets(i) until offsets(i+1))` its adjacency (symmetric,
  * sorted, deduplicated).
  */
final class CompactGraph(
    val names: Array[String],
    val types: Array[Byte], // 0 = token, 1 = rid, 2 = cid
    val offsets: Array[Int],
    val neighbors: Array[Int],
) extends Serializable {

  @transient lazy val index: Map[String, Int] = names.zipWithIndex.toMap

  def numNodes: Int = names.length
  def numEdges: Long = neighbors.length.toLong / 2

  def degree(i: Int): Int = offsets(i + 1) - offsets(i)

  def neighborsOf(i: Int): Array[Int] =
    java.util.Arrays.copyOfRange(neighbors, offsets(i), offsets(i + 1))

  def randomNeighbor(i: Int, rng: Random): Int = {
    val d = degree(i)
    require(d > 0, s"node ${names(i)} has no neighbors")
    neighbors(offsets(i) + rng.nextInt(d))
  }

  def isToken(i: Int): Boolean = types(i) == 0
  def isRid(i: Int): Boolean   = types(i) == 1
  def isCid(i: Int): Boolean   = types(i) == 2

  /** Algorithm 2's `findNeighboringRID`: a uniformly chosen RID neighbor
    * (§5.1 extends this to "a RID **or CID** connected to the token" when
    * maximising bridge impact — `orCid = true`). Falls back to a uniform
    * neighbor if the node has no neighbor of the requested kind. */
  def randomNeighborOfKind(i: Int, rng: Random, orCid: Boolean): Int = {
    val from = offsets(i); val until = offsets(i + 1)
    var count = 0
    var k = from
    while (k < until) {
      val t = types(neighbors(k))
      if (t == 1 || (orCid && t == 2)) count += 1
      k += 1
    }
    if (count == 0) return randomNeighbor(i, rng)
    var pick = rng.nextInt(count)
    k = from
    while (k < until) {
      val t = types(neighbors(k))
      if (t == 1 || (orCid && t == 2)) {
        if (pick == 0) return neighbors(k)
        pick -= 1
      }
      k += 1
    }
    throw new IllegalStateException("unreachable")
  }

  def nodeIdsOfType(t: Byte): Array[Int] =
    Array.range(0, numNodes).filter(types(_) == t)
}

object CompactGraph {

  /** [[build]] over a collected two-column edge DataFrame (such as
    * [[TripartiteGraph.edges]]). */
  def fromEdges(edgeDf: DataFrame): CompactGraph =
    build(edgeDf.collect().toSeq.map(r => (r.getString(0), r.getString(1))))

  /** Build from an undirected edge list, repeats allowed (the tripartite
    * graph's token→RID/CID pairs, tests). */
  def build(pairs: Seq[(String, String)]): CompactGraph = {
    val nameSet = new scala.collection.mutable.HashSet[String]
    pairs.foreach { case (a, b) => nameSet += a; nameSet += b }
    val names = nameSet.toArray.sorted // sorted ⇒ deterministic node ids
    val index = names.zipWithIndex.toMap
    val arcs = new Array[Long](pairs.length * 2)
    var p = 0
    pairs.foreach { case (a, b) =>
      val ia = index(a); val ib = index(b)
      arcs(p) = arc(ia, ib); arcs(p + 1) = arc(ib, ia); p += 2
    }
    fromArcs(names, names.map(NodeNames.kind), arcs)
  }

  /** The directed arc `from → to` as one long that sorts by `from`, then `to`. */
  private[repro] def arc(from: Int, to: Int): Long = from.toLong << 32 | (to.toLong & 0xffffffffL)

  /** The graph over `names` whose adjacency is `arcs` ([[arc]]s holding both
    * directions of every edge, repeats allowed): sorts `arcs` in place, drops
    * repeats and lays the rest out as CSR rows. */
  private[repro] def fromArcs(names: Array[String], types: Array[Byte], arcs: Array[Long]): CompactGraph = {
    java.util.Arrays.sort(arcs)
    // Dedup + degree count.
    val deg = new Array[Int](names.length)
    var m = 0
    var last = -1L
    var q = 0
    while (q < arcs.length) {
      if (arcs(q) != last) { last = arcs(q); arcs(m) = arcs(q); deg((arcs(q) >>> 32).toInt) += 1; m += 1 }
      q += 1
    }
    val offsets = new Array[Int](names.length + 1)
    var i = 0
    while (i < names.length) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val neigh = new Array[Int](m)
    q = 0
    while (q < m) { neigh(q) = (arcs(q) & 0xffffffffL).toInt; q += 1 }
    new CompactGraph(names, types, offsets, neigh)
  }
}
