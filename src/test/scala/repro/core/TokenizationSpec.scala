package repro.core

import repro.SparkSpec
import repro.Oracle

import scala.util.Random

class TokenizationSpec extends SparkSpec {

  import Tokenization._

  /** A raw cell as `Relation.read` stores it. */
  private def cell(raw: String): String = normalize(raw).orNull

  test("normalize trims and lowercases") {
    assert(normalize("  Hello World  ").contains("hello_world"))
  }

  test("normalize collapses internal whitespace") {
    assert(normalize("a  b\t c").contains("a_b_c"))
  }

  test("normalize returns None for null") { assert(normalize(null).isEmpty) }

  test("normalize returns None for empty and blank strings") {
    assert(normalize("").isEmpty)
    assert(normalize("   ").isEmpty)
  }

  test("normalize rounds numeric strings to significant figures") {
    assert(SigFigs == 4)
    assert(normalize("123456").contains("123500"))
    assert(normalize("3.14159").contains("3.142"))
  }

  test("normalize keeps integers integral") {
    assert(normalize("2012").contains("2012"))
  }

  test("normalize leaves formatted strings categorical") {
    assert(normalize("555-0123").contains("555-0123"))
  }

  test("Simple keeps a multi-word cell as one token") {
    assert(tokens(cell("iPad 4th 2012"), Simple) == Seq("ipad_4th_2012"))
  }

  test("Flatten splits a multi-word cell into word tokens") {
    assert(tokens(cell("iPad 4th Gen"), Flatten) == Seq("ipad", "4th", "gen"))
  }

  test("Flatten of single word equals Simple") {
    assert(tokens("apple", Flatten) == tokens("apple", Simple))
  }

  test("Overlap keeps shared values whole") {
    val st = Overlap(Set("ipad_4th"))
    assert(tokens(cell("iPad 4th"), st) == Seq("ipad_4th"))
  }

  test("Overlap splits non-shared values") {
    val st = Overlap(Set("something_else"))
    assert(tokens(cell("iPad 4th"), st) == Seq("ipad", "4th"))
  }

  test("tokens of null cell is empty") {
    assert(tokens(null, Simple).isEmpty)
    assert(tokens(null, Flatten).isEmpty)
  }

  test("whole-cell tokens that look like node names are escaped injectively") {
    val cells = Seq("idx__0", "cid__1__a", "tok__idx__0", "tok__x", "x", "idx_0")
    // Overlap's shared set holds token names, as sharedValues returns them.
    Seq(Simple, Overlap(cells.flatMap(tokens(_, Simple)).toSet)).foreach { st =>
      val toks = cells.map(tokens(_, st))
      assert(toks == Seq(Seq("tok__idx__0"), Seq("tok__cid__1__a"), Seq("tok__tok__idx__0"),
        Seq("tok__tok__x"), Seq("x"), Seq("idx_0")))
      assert(toks.flatten.forall(NodeNames.isToken))
    }
    assert(tokens("idx__0", Flatten) == Seq("idx", "0"))
  }

  test("numeric cells produce one token under every strategy") {
    Seq(Simple, Flatten, Overlap(Set.empty[String])).foreach { st =>
      assert(tokens("42.5", st) == Seq("42.5"))
    }
  }

  test("normalize is idempotent (property)") {
    val rng = new Random(0)
    (0 until 200).foreach { _ =>
      val s = Random.alphanumeric.take(rng.nextInt(12)).mkString
      normalize(s).foreach { n =>
        assert(normalize(n).contains(n), s"input '$s' normalized '$n'")
      }
    }
  }

  test("Flatten tokens never contain whitespace (property)") {
    val rng = new Random(1)
    (0 until 200).foreach { _ =>
      val ws = Seq.fill(1 + rng.nextInt(4))(
        (0 until 1 + rng.nextInt(6)).map(_ => ('a' + rng.nextInt(26)).toChar).mkString)
      val toks = tokens(cell(ws.mkString(" ")), Flatten)
      assert(toks.forall(t => !t.contains(" ")))
      assert(toks.nonEmpty)
    }
  }

  test("sharedValues finds the intersection of two datasets") {
    import spark.implicits._
    val d1 = Seq((0L, "Apple", "iPad 4th"), (1L, "Samsung", "Galaxy"))
      .toDF("__rid", "maker", "product")
    val d2 = Seq((2L, "Apple", "MacBook"), (3L, "Sony", "Bravia"))
      .toDF("__rid", "maker", "product")
    assert(Tokenization.sharedValues(spark, d1, d2) == Set("apple"))
  }

  test("sharedValues size matches a DuckDB INTERSECT count") {
    import spark.implicits._
    val d1 = Seq((0L, "Apple", "iPad 4th"), (1L, "Samsung", "Galaxy"), (2L, "Sony", null))
      .toDF("__rid", "maker", "product")
    val d2 = Seq((3L, "APPLE", "MacBook"), (4L, "sony", "ipad 4TH"), (5L, null, "Bravia"))
      .toDF("__rid", "brand", "item")
    val norm = (c: String) => s"lower(replace($c, ' ', '_'))"
    Oracle.assertEquivalent(
      Seq(Tokenization.sharedValues(spark, d1, d2).size.toLong).toDF("n"),
      s"SELECT count(*) as n FROM (" +
        s"SELECT ${norm("v")} FROM (SELECT maker v FROM a UNION ALL SELECT product FROM a) WHERE v IS NOT NULL " +
        s"INTERSECT SELECT ${norm("v")} FROM (SELECT brand v FROM b UNION ALL SELECT item FROM b) WHERE v IS NOT NULL)",
      "a" -> d1.drop("__rid"), "b" -> d2.drop("__rid"))
  }

  test("distinctValues matches a DuckDB oracle count") {
    import spark.implicits._
    val d = Seq((0L, "Alpha", "x"), (1L, "beta", "y"), (2L, "ALPHA", "y"))
      .toDF("__rid", "a", "b")
    val got = Tokenization.distinctValues(spark, d)
    // alpha, beta, x, y → lowercased dedup
    Oracle.assertEquivalent(
      got.selectExpr("count(*) as n"),
      "SELECT count(*) as n FROM (SELECT DISTINCT lower(a) FROM " +
        "(SELECT a FROM t UNION ALL SELECT b FROM t))",
      "t" -> d.selectExpr("a", "b"))
  }

  test("the adapters that take a figure count accept only SigFigs") {
    import spark.implicits._
    val d = Seq((0L, "3.14159")).toDF("__rid", "x")
    assert(distinctValues(spark, d, SigFigs).collect().map(_.getString(0)).toSeq == Seq("3.142"))
    intercept[IllegalArgumentException](distinctValues(spark, d, 3))
    intercept[IllegalArgumentException](TripartiteGraph.edges(spark, Seq(d), Simple, 3))
    intercept[IllegalArgumentException](EmbDI.resolveStrategy(spark, Seq(d), Simple, 5))
  }

  test("distinctValues drops nulls") {
    import spark.implicits._
    val d = Seq((0L, Some("x"), None: Option[String]), (1L, None, Some("y")))
      .toDF("__rid", "a", "b")
    val vals = Tokenization.distinctValues(spark, d).collect().map(_.getString(0)).toSet
    assert(vals == Set("x", "y"))
  }

  test("a shared cell that looks like a RID is a walk start and in its column's domain") {
    import spark.implicits._
    // The cell idx__5 is the graph token tok__idx__5 (never RID 5), and every
    // set of names derived from cells must use that name.
    val d1 = Seq((0L, "idx__5", "apple pie"), (1L, "x", "plum")).toDF("__rid", "code", "food")
    val d2 = Seq((2L, "idx__5", "apple"), (3L, "y", "plum")).toDF("__rid", "ref", "dish")
    val shared = sharedValues(spark, d1, d2)
    assert(shared == Set("tok__idx__5", "plum"))
    val starts = shared ++ sharedTokens(spark, d1, d2, Flatten)
    val g = CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(d1, d2), Overlap(shared)))
    val startNames = RandomWalker.startNodes(g, RandomWalker.OverlapTokens(starts)).map(g.names)
    assert(startNames.contains("tok__idx__5"), startNames.mkString(", "))
    assert(g.nodeIdsOfType(1).length == 4)
    assert(repro.integration.TokenMatcher.domain(d1, "code") == Seq("tok__idx__5", "x"))
  }
}
