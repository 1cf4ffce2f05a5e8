package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}

/** Algorithm 1 checked against the paper's running example: the two tables
  * of Figure 1, whose graph is drawn in Figure 2.
  */
class TripartiteGraphSpec extends SparkSpec {

  // Figure 1 left: two small customer datasets.
  private lazy val figure1a: DataFrame = {
    import spark.implicits._
    Seq(
      (0L, "Paul", "iPad 4th"),
      (1L, "Mike", "iPad 4th"),
      (2L, "Steve", "Galaxy"),
    ).toDF("__rid", "A1", "A2")
  }
  private lazy val figure1b: DataFrame = {
    import spark.implicits._
    Seq(
      (3L, "Rick", "Samsung"),
      (4L, "Paul", "Apple"),
    ).toDF("__rid", "A3", "A4")
  }

  private def graphFor(strategy: Tokenization.Strategy): CompactGraph =
    CompactGraph.fromEdges(
      TripartiteGraph.edges(spark, Seq(figure1a, figure1b), strategy))

  test("Figure 2 graph has the expected node counts under Simple") {
    val g = graphFor(Tokenization.Simple)
    // tokens: paul, mike, steve, rick, ipad_4th, galaxy, samsung, apple = 8
    assert(g.nodeIdsOfType(0).length == 8)
    assert(g.nodeIdsOfType(1).length == 5) // r0..r4
    assert(g.nodeIdsOfType(2).length == 4) // A1, A2, A3, A4
  }

  test("every cell contributes one token-RID and one token-CID edge, deduplicated") {
    val g = graphFor(Tokenization.Simple)
    // 10 cells → 20 raw edges; 'ipad_4th' occurs in two rows of the same
    // column, so its token-CID edge dedups: 19 undirected edges.
    assert(g.numEdges == 19)
  }

  test("shared token is connected to both its rows") {
    val g = graphFor(Tokenization.Simple)
    val paul = g.index("paul")
    val nbrs = g.neighborsOf(paul).map(g.names).toSet
    assert(nbrs.contains(NodeNames.rid(0)))
    assert(nbrs.contains(NodeNames.rid(4)))
    assert(nbrs.contains(NodeNames.cid(1, "A1")))
    assert(nbrs.contains(NodeNames.cid(2, "A3")))
  }

  test("Flatten splits iPad 4th into two token nodes on the same RID") {
    val g = graphFor(Tokenization.Flatten)
    assert(g.index.contains("ipad"))
    assert(g.index.contains("4th"))
    val r0nbrs = g.neighborsOf(g.index(NodeNames.rid(0))).map(g.names).toSet
    assert(r0nbrs.contains("ipad") && r0nbrs.contains("4th") && r0nbrs.contains("paul"))
  }

  test("RIDs connect only to tokens, never to CIDs") {
    val g = graphFor(Tokenization.Simple)
    g.nodeIdsOfType(1).foreach { r =>
      assert(g.neighborsOf(r).forall(g.isToken), s"rid ${g.names(r)}")
    }
  }

  test("CIDs connect only to tokens") {
    val g = graphFor(Tokenization.Flatten)
    g.nodeIdsOfType(2).foreach { c =>
      assert(g.neighborsOf(c).forall(g.isToken))
    }
  }

  test("null cells are skipped (the §5.2 default)") {
    import spark.implicits._
    val withNull = Seq((0L, Some("a"), None: Option[String]), (1L, Some("b"), Some("c")))
      .toDF("__rid", "x", "y")
    val g = CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(withNull), Tokenization.Simple))
    assert(g.nodeIdsOfType(0).map(g.names).toSet == Set("a", "b", "c"))
    // rid 0 has only one token neighbor
    assert(g.degree(g.index(NodeNames.rid(0))) == 1)
  }

  test("node and edge counts of Figure 1 match a DuckDB oracle") {
    import spark.implicits._
    val g = graphFor(Tokenization.Simple)
    val got = Seq((g.numEdges, g.nodeIdsOfType(0).length.toLong, g.nodeIdsOfType(1).length.toLong,
      g.nodeIdsOfType(2).length.toLong)).toDF("edges", "tokens", "rids", "cids")
    // Melted (rid, dataset-qualified col, token) view of both tables, built
    // independently of the code under test.
    val melted = Seq(1 -> figure1a, 2 -> figure1b).flatMap { case (ds, df) =>
      df.columns.filterNot(_ == "__rid").map(c =>
        df.selectExpr("__rid as rid", s"'${ds}__$c' as col", s"lower(replace($c, ' ', '_')) as v"))
    }.reduce(_ union _).where("v is not null")
    // #edges = #distinct (token, rid) + #distinct (token, col).
    Oracle.assertEquivalent(got,
      "SELECT (SELECT count(*) FROM (SELECT DISTINCT v, rid FROM m)) + " +
        "(SELECT count(*) FROM (SELECT DISTINCT v, col FROM m)) as edges, " +
        "count(DISTINCT v) as tokens, count(DISTINCT rid) as rids, count(DISTINCT col) as cids FROM m",
      "m" -> melted)
  }

  test("cells that look like RID or CID names stay token nodes") {
    import spark.implicits._
    val df = Seq((0L, "idx__5", "cid__2__z", "tok__x"), (1L, "idx__0", "cid__1__a", "plain"))
      .toDF("__rid", "a", "b", "c")
    val g = CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(df), Tokenization.Simple))
    val got = Seq((g.nodeIdsOfType(1).length.toLong, g.nodeIdsOfType(2).length.toLong))
      .toDF("rids", "cids")
    val melted = Seq("a", "b", "c").map(c => df.selectExpr("__rid as rid", s"'$c' as col"))
      .reduce(_ union _)
    Oracle.assertEquivalent(got,
      "SELECT count(DISTINCT rid) as rids, count(DISTINCT col) as cids FROM m", "m" -> melted)
    assert(g.nodeIdsOfType(0).map(g.names).toSet ==
      Set("tok__idx__5", "tok__cid__2__z", "tok__tok__x", "tok__idx__0", "tok__cid__1__a", "plain"))
  }

  test("a CID name decodes to its column, underscores and all") {
    Seq("title", "a__b", "cid__x", "_").foreach { c =>
      Seq(1, 2, 12).foreach(d => assert(NodeNames.cidColumn(NodeNames.cid(d, c)) == c))
    }
  }

  test("doubles cast to scientific notation are rounded like plain numbers (§4.1)") {
    import spark.implicits._
    // cast("string") renders these as "1.2345678E7" and "1.0E-4".
    val df = Seq((0L, 1.2345678e7), (1L, 1.0e-4)).toDF("__rid", "x")
    val toks = TripartiteGraph.edges(spark, Seq(df), Tokenization.Simple)
      .select("src").as[String].collect().toSet
    assert(toks == Set("12350000", "0.0001"))
  }

  test("the graph is orders of magnitude smaller than a complete-subgraph encoding") {
    // §4.1: tripartite ⇒ 2m edges/tuple vs m(m-1)/2 + attribute edges.
    import spark.implicits._
    val wide = (0L until 50L).map { r =>
      (r, s"a$r", s"b$r", s"c$r", s"d$r", s"e$r", s"f$r", s"g$r", s"h$r")
    }.toDF("__rid", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")
    val g = CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(wide), Tokenization.Simple))
    assert(g.numEdges == 50 * 8 * 2) // linear in cells, not quadratic in columns
  }
}
