package repro.core

import org.apache.spark.sql.DataFrame
import repro.baselines.{BasicEmbeddings, Harp}
import repro.{SparkSpec, TestFixtures}

/** The driver-side corpora against the Spark drivers they replaced
  * ([[ReferenceWalks]]): every corpus must be the same, row for row and in
  * order, at the same seed. */
class WalkEngineSpec extends SparkSpec {

  private def rows(df: DataFrame): Seq[Seq[String]] =
    df.collect().map(_.getSeq[String](0).toSeq).toSeq

  private def rows(corpus: Array[Array[String]]): Seq[Seq[String]] = corpus.map(_.toSeq).toSeq

  private lazy val graph: CompactGraph = TestFixtures.tinyEmbDI.graph

  private lazy val harpGraph: CompactGraph = {
    import spark.implicits._
    val df = (0L until 40L).map(i => (i, s"t${i % 11}", s"u${i % 7}")).toDF("__rid", "a", "b")
    CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(df), Tokenization.Simple))
  }

  test("EmbDI corpora equal the old driver's under every start, first-step and replacement option") {
    // The first step is derived from the start strategy (RID-or-CID under
    // overlap starts), so the two strategies cover both first-step pickers.
    val shared = RandomWalker.OverlapTokens(TestFixtures.tinyShared)
    assert(RandomWalker.startNodes(graph, shared).nonEmpty)
    // Shared and unshared tokens alike, so replacement fires mid-walk too.
    val replaced = graph.nodeIdsOfType(0).map(graph.names).grouped(3).map(_.head).toSeq
    for {
      start <- Seq(RandomWalker.AllNodes, shared)
      p     <- Seq(0.0, 0.5, 1.0)
    } {
      val cfg = RandomWalker.WalkConfig(walkLength = 15, corpusTokens = 20000,
        startStrategy = start, replacements = replaced.map(t => t -> (s"$t~", p)).toMap,
        seed = 17L)
      val got = rows(RandomWalker.sentences(graph, cfg))
      assert(got.nonEmpty)
      assert(got == rows(ReferenceWalks.embdi(spark, graph, cfg)),
        s"start=${start.getClass.getSimpleName} p=$p")
    }
  }

  test("HARP's coarse graphs equal the string-named reference at both levels") {
    Seq(harpGraph, graph).foreach { g0 =>
      (1 to Harp.Levels).foldLeft((g0, g0)) { case ((g, ref), lvl) =>
        val (coarse, m) = Harp.coarsen(g, 100L + lvl)
        val (refCoarse, refM) = ReferenceWalks.coarsen(ref, lvl, 100L + lvl)
        assert(m.sameElements(refM), s"mapping at level $lvl")
        assert(coarse.offsets.sameElements(refCoarse.offsets), s"offsets at level $lvl")
        assert(coarse.neighbors.sameElements(refCoarse.neighbors), s"neighbors at level $lvl")
        (coarse, refCoarse)
      }
    }
  }

  test("HARP's combined corpus equals the old per-level loop at its two levels") {
    val cfg = Harp.Config(corpusTokens = 6000, walkLength = 10)
    val got = rows(Harp.corpus(harpGraph, cfg))
    assert(got.nonEmpty)
    assert(got == rows(ReferenceWalks.harp(spark, harpGraph, cfg)))
  }

  test("Basic's corpus equals the old RDD corpus under Flatten and Overlap") {
    val sc = TestFixtures.tiny
    val data = Seq(sc.d1, sc.d2)
    Seq(Tokenization.Flatten, Tokenization.Overlap(TestFixtures.tinyShared)).foreach { st =>
      val cfg = BasicEmbeddings.Config(corpusTokens = 30000, strategy = st)
      val got = rows(BasicEmbeddings.corpus(TestFixtures.tinyRelations, cfg))
      assert(got.nonEmpty)
      assert(got == ReferenceWalks.basic(spark, data, cfg), st.name)
    }
  }
}
