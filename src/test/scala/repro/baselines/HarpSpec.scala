package repro.baselines

import repro.SparkSpec
import repro.core.{CompactGraph, EmbeddingTrainer, TripartiteGraph, Tokenization}

class HarpSpec extends SparkSpec {

  private lazy val graph: CompactGraph = {
    import spark.implicits._
    val df = (0L until 40L).map(i => (i, s"t${i % 11}", s"u${i % 7}")).toDF("__rid", "a", "b")
    CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(df), Tokenization.Simple))
  }

  test("coarsen reduces the node count") {
    val (coarse, _) = Harp.coarsen(graph, 1L)
    assert(coarse.numNodes < graph.numNodes)
    assert(coarse.numNodes >= graph.numNodes / 2)
  }

  test("coarsen mapping covers every fine node") {
    val (coarse, mapping) = Harp.coarsen(graph, 2L)
    assert(mapping.length == graph.numNodes)
    mapping.foreach(c => assert(c >= 0 && c < coarse.numNodes))
  }

  test("coarsen preserves connectivity: fine edges map to coarse edges or merges") {
    val (coarse, mapping) = Harp.coarsen(graph, 3L)
    (0 until graph.numNodes).foreach { u =>
      graph.neighborsOf(u).foreach { v =>
        val cu = mapping(u); val cv = mapping(v)
        assert(cu == cv || coarse.neighborsOf(cu).contains(cv),
          s"fine edge ${graph.names(u)}-${graph.names(v)} lost")
      }
    }
  }

  test("coarsen is deterministic in the seed") {
    val (a, ma) = Harp.coarsen(graph, 9L)
    val (b, mb) = Harp.coarsen(graph, 9L)
    assert(a.numNodes == b.numNodes)
    assert(ma.sameElements(mb))
  }

  test("coarsen keeps a representative without coarse edges, at degree 0") {
    // One edge collapses into one coarse node with nothing left to connect.
    val (coarse, mapping) = Harp.coarsen(CompactGraph.build(Seq(("a", "b"))), 4L)
    assert(coarse.numNodes == 1 && coarse.degree(0) == 0)
    assert(mapping.sameElements(Array(0, 0)))
  }

  test("train produces embeddings for fine-level node names") {
    val res = EmbeddingTrainer.walkThenTrain(
      Harp.corpus(graph, Harp.Config(corpusTokens = 60000, walkLength = 10)),
      EmbeddingTrainer.W2VConfig(dim = 16, minCount = 1))
    // every corpus word (the vocabulary at minCount 1) is a fine node name:
    // coarse nodes are written as their members
    assert(res.model.words.forall(graph.index.contains))
    // a decent share of fine nodes embedded
    val embedded = graph.names.count(res.model.contains)
    assert(embedded > graph.numNodes / 2, s"$embedded of ${graph.numNodes}")
    assert(res.walkMs > 0 && res.trainMs > 0)
  }

  test("train over a graph with no start nodes is rejected, not divided by zero") {
    val e = intercept[IllegalArgumentException](Harp.corpus(CompactGraph.build(Seq.empty), Harp.Config()))
    assert(e.getMessage.contains("no start nodes"))
  }
}
