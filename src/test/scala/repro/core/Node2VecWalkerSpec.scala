package repro.core

import repro.SparkSpec

/** The Node2Vec baseline's corpus: [[RandomWalker.uniformCorpus]], node2vec's
  * walk at its default p = q = 1. */
class Node2VecWalkerSpec extends SparkSpec {

  import RandomWalker.uniformCorpus

  private lazy val graph: CompactGraph = {
    import spark.implicits._
    val df = (0L until 20L).map(i => (i, s"t${i % 7}", s"u${i % 5}")).toDF("__rid", "a", "b")
    CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(df), Tokenization.Simple))
  }

  test("walks have the requested length and follow edges") {
    val corpus = uniformCorpus(graph, corpusTokens = 2000, walkLength = 15, seed = 3)
    // a walk from every connected node
    assert(corpus.map(_.head).toSet == graph.names.toSet)
    corpus.foreach { w =>
      assert(w.length == 15)
      w.map(graph.index).sliding(2).foreach { case Array(a, b) =>
        assert(graph.neighborsOf(a).contains(b), s"${graph.names(a)} -> ${graph.names(b)}")
      }
    }
  }

  test("corpus sentences map node ids to names") {
    val sentences = uniformCorpus(graph, corpusTokens = 2000, walkLength = 10, seed = 1)
    assert(sentences.nonEmpty)
    sentences.flatten.foreach(n => assert(graph.index.contains(n)))
  }

  test("corpus is deterministic in the seed") {
    def corpus = uniformCorpus(graph, corpusTokens = 1000, walkLength = 10, seed = 5).map(_.toSeq).toSeq
    assert(corpus == corpus)
  }

  test("corpus over a graph with no start nodes is rejected, not divided by zero") {
    val e = intercept[IllegalArgumentException](
      uniformCorpus(CompactGraph.build(Seq.empty), corpusTokens = 1000, walkLength = 10, seed = 1))
    assert(e.getMessage.contains("no start nodes"))
  }
}
