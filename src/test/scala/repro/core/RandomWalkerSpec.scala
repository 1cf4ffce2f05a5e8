package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec

import scala.util.Random

class RandomWalkerSpec extends SparkSpec {

  import RandomWalker._

  private lazy val graph: CompactGraph = {
    import spark.implicits._
    val df = Seq(
      (0L, "paul", "ipad"), (1L, "mike", "ipad"), (2L, "steve", "galaxy"),
    ).toDF("__rid", "c1", "c2")
    CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(df), Tokenization.Simple))
  }

  test("walkFrom produces a path of the requested length") {
    val rng = new Random(1)
    val w = walkFrom(graph, graph.index("paul"), WalkConfig(walkLength = 10), rng)
    assert(w.length == 10)
  }

  test("walkFrom starting at a token prepends a neighboring RID (Algorithm 2)") {
    val rng = new Random(2)
    val start = graph.index("ipad")
    (0 until 30).foreach { _ =>
      val w = walkFrom(graph, start, WalkConfig(walkLength = 5), rng)
      assert(graph.isRid(w(0)), s"first node ${graph.names(w(0))} not a RID")
      assert(w(1) == start)
      assert(graph.neighborsOf(w(0)).contains(w(1)))
    }
  }

  test("the first step from a token is a RID under AllNodes, a RID or CID under OverlapTokens (§5.1)") {
    val start = graph.index("ipad")
    def firstKinds(strategy: StartStrategy): Set[Int] =
      (0 until 60).map { i =>
        val w = walkFrom(graph, start, WalkConfig(walkLength = 5, startStrategy = strategy),
          new Random(i))
        assert(w(1) == start && graph.neighborsOf(w(0)).contains(start))
        graph.types(w(0)).toInt
      }.toSet
    assert(firstKinds(AllNodes) == Set(1))
    assert(firstKinds(OverlapTokens(Set("ipad"))) == Set(1, 2))
  }

  test("walkFrom from a RID does not prepend") {
    val rng = new Random(3)
    val start = graph.nodeIdsOfType(1).head
    val w = walkFrom(graph, start, WalkConfig(walkLength = 6), rng)
    assert(w(0) == start)
  }

  test("every consecutive pair in a walk is a graph edge") {
    val rng = new Random(4)
    (0 until 50).foreach { _ =>
      val start = rng.nextInt(graph.numNodes)
      val w = walkFrom(graph, start, WalkConfig(walkLength = 20), rng)
      w.sliding(2).foreach { case Array(a, b) =>
        assert(graph.neighborsOf(a).contains(b), s"${graph.names(a)} -> ${graph.names(b)}")
      }
    }
  }

  test("walks alternate token and RID/CID nodes (tripartite structure)") {
    val rng = new Random(5)
    val w = walkFrom(graph, graph.index("paul"), WalkConfig(walkLength = 30), rng)
    w.foreach { n =>
      val t = graph.types(n)
      assert(t == 0 || t == 1 || t == 2)
    }
    // no two token nodes adjacent, no two id nodes adjacent
    w.sliding(2).foreach { case Array(a, b) =>
      assert(graph.isToken(a) != graph.isToken(b))
    }
  }

  test("startNodes AllNodes excludes isolated nodes only") {
    assert(startNodes(graph, AllNodes).length == graph.numNodes)
  }

  test("startNodes OverlapTokens restricts to the shared set") {
    val s = startNodes(graph, OverlapTokens(Set("ipad", "galaxy")))
    assert(s.map(graph.names).toSet == Set("ipad", "galaxy"))
  }

  test("corpus honours the token budget within one walk length") {
    val cfg = WalkConfig(walkLength = 10, corpusTokens = 2000, seed = 6)
    val total = sentences(graph, cfg).map(_.length).sum
    assert(total >= 2000 * 9 / 10 && total <= 2 * 2000, s"total tokens $total")
  }

  test("every start node gets at least its budget of walks") {
    val cfg = WalkConfig(walkLength = 5, corpusTokens = 5000, seed = 7)
    val starts = startNodes(graph, cfg.startStrategy)
    val perNode = math.max(1, (5000 / 5) / starts.length)
    assert(sentences(graph, cfg).length == starts.length * perNode)
  }

  test("corpus is deterministic in the seed") {
    val cfg = WalkConfig(walkLength = 8, corpusTokens = 1000, seed = 99)
    assert(sentences(graph, cfg).map(_.toSeq).toSeq == sentences(graph, cfg).map(_.toSeq).toSeq)
  }

  test("different seeds give different corpora") {
    val a = sentences(graph, WalkConfig(walkLength = 8, corpusTokens = 1000, seed = 1))
    val b = sentences(graph, WalkConfig(walkLength = 8, corpusTokens = 1000, seed = 2))
    assert(a.map(_.toSeq).toSeq != b.map(_.toSeq).toSeq)
  }

  test("corpus is invariant to the number of partitions") {
    val cfg = WalkConfig(walkLength = 8, corpusTokens = 1000, seed = 42)
    def rows(df: DataFrame) = df.collect().map(_.getSeq[String](0)).toSeq
    val c = sentences(graph, cfg).map(_.toSeq).toSeq
    assert(c == rows(ReferenceWalks.embdi(spark, graph, cfg, numPartitions = 2)))
    assert(c == rows(ReferenceWalks.embdi(spark, graph, cfg, numPartitions = 7)))
  }

  test("corpus equals the sequential walks of starts x perNode seeded by (seed, start, walk)") {
    // The seed contract that makes the corpus independent of partitioning.
    val cfg = WalkConfig(walkLength = 8, corpusTokens = 1000, seed = 42,
      replacements = Map("ipad" -> ("tablet", 0.5)))
    val starts = startNodes(graph, cfg.startStrategy)
    val perNode = math.max(1, (1000 / 8) / starts.length)
    val expected = for (s <- starts.toSeq; w <- 0 until perNode) yield {
      val rng = Rand.of(42L, s.toLong, w.toLong)
      emit(graph, walkFrom(graph, s, cfg, rng), cfg, rng).toSeq
    }
    assert(sentences(graph, cfg).map(_.toSeq).toSeq == expected)
  }

  test("replacement rewrites emissions with probability, never the path") {
    val cfg = WalkConfig(walkLength = 40, corpusTokens = 20000, seed = 13,
      replacements = Map("ipad" -> ("tablet", 1.0)))
    val tokens = sentences(graph, cfg).flatten
    assert(!tokens.contains("ipad"))
    assert(tokens.contains("tablet"))
    // neighbors of the replaced node still appear (path unaffected): the walk
    // still visits rows r0/r1 which are only reachable through 'ipad'.
    assert(tokens.contains(NodeNames.rid(0)) || tokens.contains(NodeNames.rid(1)))
  }

  test("replacement with probability 0 never fires") {
    val cfg = WalkConfig(walkLength = 20, corpusTokens = 5000, seed = 14,
      replacements = Map("ipad" -> ("tablet", 0.0)))
    val tokens = sentences(graph, cfg).flatten
    assert(!tokens.contains("tablet"))
  }

  test("corpusTokensRule implements the paper formula") {
    assert(corpusTokensRule(100, 50, 1000) == 150000)
  }
}
