package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class CompactGraphSpec extends AnyFunSuite {

  private val triangle = CompactGraph.build(Seq(("a", "b"), ("b", "c"), ("c", "a")))

  test("build assigns dense ids to all endpoint names") {
    assert(triangle.numNodes == 3)
    assert(triangle.index.keySet == Set("a", "b", "c"))
  }

  test("adjacency is symmetric") {
    val g = triangle
    for (i <- 0 until g.numNodes; j <- g.neighborsOf(i)) {
      assert(g.neighborsOf(j).contains(i), s"edge ${g.names(i)}→${g.names(j)} not symmetric")
    }
  }

  test("duplicate edges are removed") {
    val g = CompactGraph.build(Seq(("a", "b"), ("a", "b"), ("b", "a")))
    assert(g.numEdges == 1)
    assert(g.degree(g.index("a")) == 1)
  }

  test("degree and neighborsOf agree") {
    (0 until triangle.numNodes).foreach { i =>
      assert(triangle.degree(i) == triangle.neighborsOf(i).length)
    }
  }

  test("node types derive from name prefixes") {
    val g = CompactGraph.build(Seq(("tok", NodeNames.rid(3)), ("tok", NodeNames.cid(1, "col"))))
    assert(g.isToken(g.index("tok")))
    assert(g.isRid(g.index(NodeNames.rid(3))))
    assert(g.isCid(g.index(NodeNames.cid(1, "col"))))
  }

  test("randomNeighbor only returns adjacent nodes") {
    val g = triangle
    val rng = new Random(1)
    (0 until 100).foreach { _ =>
      val i = rng.nextInt(g.numNodes)
      assert(g.neighborsOf(i).contains(g.randomNeighbor(i, rng)))
    }
  }

  test("randomNeighborOfKind prefers RIDs") {
    val g = CompactGraph.build(Seq(
      ("tok", NodeNames.rid(1)), ("tok", NodeNames.rid(2)), ("tok", NodeNames.cid(1, "c"))))
    val rng = new Random(5)
    (0 until 50).foreach { _ =>
      val n = g.randomNeighborOfKind(g.index("tok"), rng, orCid = false)
      assert(g.isRid(n))
    }
  }

  test("randomNeighborOfKind with orCid=true samples RIDs and CIDs") {
    val g = CompactGraph.build(Seq(
      ("tok", NodeNames.rid(1)), ("tok", NodeNames.cid(1, "c")), ("tok", "other")))
    val rng = new Random(6)
    val seen = (0 until 200).map(_ =>
      g.types(g.randomNeighborOfKind(g.index("tok"), rng, orCid = true))).toSet
    assert(seen == Set(1.toByte, 2.toByte))
  }

  test("randomNeighborOfKind falls back to any neighbor when no RID/CID exists") {
    val g = CompactGraph.build(Seq(("a", "b")))
    val rng = new Random(7)
    assert(g.names(g.randomNeighborOfKind(g.index("a"), rng, orCid = true)) == "b")
  }

  test("node ids are deterministic (sorted by name)") {
    val g1 = CompactGraph.build(Seq(("x", "y"), ("y", "z")))
    val g2 = CompactGraph.build(Seq(("y", "z"), ("x", "y")))
    assert(g1.names.sameElements(g2.names))
    assert(g1.offsets.sameElements(g2.offsets))
    assert(g1.neighbors.sameElements(g2.neighbors))
  }

  test("numEdges counts undirected edges once") {
    val rng = new Random(11)
    val pairs = (0 until 500).map(_ => (s"a${rng.nextInt(30)}", s"b${rng.nextInt(30)}"))
    val g = CompactGraph.build(pairs)
    assert(g.numEdges == pairs.distinct.size)
    assert(g.neighbors.length % 2 == 0)
  }

  test("nodeIdsOfType partitions the graph") {
    val g = CompactGraph.build(Seq(
      ("t1", NodeNames.rid(1)), ("t1", NodeNames.cid(1, "a")), ("t2", NodeNames.rid(1))))
    val all = g.nodeIdsOfType(0) ++ g.nodeIdsOfType(1) ++ g.nodeIdsOfType(2)
    assert(all.sorted.sameElements(Array.range(0, g.numNodes)))
  }
}
