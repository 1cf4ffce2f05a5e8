package repro.core

import repro.SparkSpec

import scala.util.Random

class Node2VecWalkerSpec extends SparkSpec {

  import Node2VecWalker._

  private lazy val graph: CompactGraph = {
    import spark.implicits._
    val df = (0L until 20L).map(i => (i, s"t${i % 7}", s"u${i % 5}")).toDF("__rid", "a", "b")
    CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(df), Tokenization.Simple))
  }

  test("walks have the requested length and follow edges") {
    val rng = new Random(1)
    (0 until 30).foreach { _ =>
      val start = rng.nextInt(graph.numNodes)
      val w = walkFrom(graph, start, N2VConfig(walkLength = 15), rng)
      assert(w.length == 15)
      w.sliding(2).foreach { case Array(a, b) => assert(graph.hasEdge(a, b)) }
    }
  }

  test("small p makes walks backtrack more") {
    def backtrackRate(p: Double): Double = {
      val rng = new Random(7)
      val walks = (0 until 300).map { i =>
        walkFrom(graph, i % graph.numNodes, N2VConfig(walkLength = 20, p = p, q = 1.0), rng)
      }
      val (bt, steps) = walks.foldLeft((0, 0)) { case ((b, s), w) =>
        var bb = b; var ss = s
        var i = 2
        while (i < w.length) { if (w(i) == w(i - 2)) bb += 1; ss += 1; i += 1 }
        (bb, ss)
      }
      bt.toDouble / steps
    }
    assert(backtrackRate(0.1) > backtrackRate(10.0) + 0.05)
  }

  test("corpus sentences map node ids to names") {
    val sentences = corpus(graph, N2VConfig(walkLength = 10, corpusTokens = 2000))
    assert(sentences.nonEmpty)
    sentences.flatten.foreach(n => assert(graph.index.contains(n)))
  }

  test("corpus is deterministic in the seed") {
    val cfg = N2VConfig(walkLength = 10, corpusTokens = 1000, seed = 5)
    assert(corpus(graph, cfg).map(_.toSeq).toSeq == corpus(graph, cfg).map(_.toSeq).toSeq)
  }

  test("corpus over a graph with no start nodes is rejected, not divided by zero") {
    val e = intercept[IllegalArgumentException](corpus(CompactGraph.build(Seq.empty), N2VConfig()))
    assert(e.getMessage.contains("no start nodes"))
  }

  test("a step that rejects 1000 candidates in a row fails loudly") {
    // A hub token with 10 000 RID leaves, walked from a leaf with p = 1e-9:
    // from the hub only the way back is accepted (weight 1/p against 1 for
    // the other leaves), so each try accepts with probability ~1e-4.
    val star = CompactGraph.build((0 until 10000).map(i => ("hub", NodeNames.rid(i.toLong))))
    val e = intercept[IllegalStateException] {
      walkFrom(star, star.index(NodeNames.rid(0L)), N2VConfig(walkLength = 20, p = 1e-9, q = 1.0),
        new Random(11))
    }
    assert(e.getMessage.contains("hub") && e.getMessage.contains("p = 1.0E-9") &&
      e.getMessage.contains("q = 1.0"))
  }
}
