package repro.core

import repro.{Oracle, SparkSpec}

class NullHandlingSpec extends SparkSpec {

  import spark.implicits._

  private def isSkolem(v: String): Boolean = v.matches("sk\\d+")
  private def isNullPlaceholder(v: String): Boolean = v.matches("null\\d+c\\d+")

  test("skolemizeUnique replaces each NULL with a distinct placeholder") {
    val df = Seq(
      (0L, Some("a"), None: Option[String]),
      (1L, None: Option[String], None: Option[String]),
    ).toDF("__rid", "x", "y")
    val out = NullHandling.skolemizeUnique(df, Seq("x", "y")).collect()
    val values = out.flatMap(r => Seq(r.getString(1), r.getString(2)))
    assert(values.forall(_ != null))
    val placeholders = values.filter(isNullPlaceholder)
    assert(placeholders.length == 3)
    assert(placeholders.distinct.length == 3)
  }

  test("skolemizeUnique leaves non-null values untouched") {
    val df = Seq((0L, Some("keep"))).toDF("__rid", "x")
    val out = NullHandling.skolemizeUnique(df, Seq("x")).collect()
    assert(out.head.getString(1) == "keep")
  }

  test("enforceFd merges conflicting rhs values into one skolem (§5.2 example)") {
    // R1(a, b, c, N2) and R2(a, b, c', N3): A1,A2 → A3 forces c and c' to merge.
    val df = Seq(
      (0L, "a", "b", Some("c")),
      (1L, "a", "b", Some("c_prime")),
    ).toDF("__rid", "a1", "a2", "a3")
    val out = NullHandling.enforceFd(df, Seq("a1", "a2"), "a3").collect()
    val vals = out.map(_.getString(3)).distinct
    assert(vals.length == 1)
    assert(isSkolem(vals.head))
  }

  test("enforceFd merges a null into the group skolem") {
    val df = Seq(
      (0L, "k", Some("v")),
      (1L, "k", None: Option[String]),
    ).toDF("__rid", "lhs", "rhs")
    val out = NullHandling.enforceFd(df, Seq("lhs"), "rhs").collect()
    val vals = out.map(_.getString(2)).distinct
    assert(vals.length == 1 && isSkolem(vals.head))
  }

  test("enforceFd leaves consistent groups untouched") {
    val df = Seq(
      (0L, "k1", Some("v1")),
      (1L, "k1", Some("v1")),
      (2L, "k2", Some("v2")),
    ).toDF("__rid", "lhs", "rhs")
    val out = NullHandling.enforceFd(df, Seq("lhs"), "rhs").collect()
    assert(out.map(_.getString(2)).toSet == Set("v1", "v2"))
  }

  test("enforceFd ignores groups with null lhs") {
    val df = Seq(
      (0L, None: Option[String], Some("v1")),
      (1L, None: Option[String], None: Option[String]),
    ).toDF("__rid", "lhs", "rhs")
    val out = NullHandling.enforceFd(df, Seq("lhs"), "rhs").collect()
    assert(out.map(r => Option(r.getString(2))).toSet == Set(Some("v1"), None))
  }

  test("enforceFd gives different groups different skolems") {
    val df = Seq(
      (0L, "g1", Some("x")), (1L, "g1", Some("y")),
      (2L, "g2", Some("p")), (3L, "g2", Some("q")),
    ).toDF("__rid", "lhs", "rhs")
    val out = NullHandling.enforceFd(df, Seq("lhs"), "rhs").collect()
    val byGroup = out.groupBy(_.getString(1)).view.mapValues(_.map(_.getString(2)).distinct).toMap
    assert(byGroup("g1").length == 1 && byGroup("g2").length == 1)
    assert(byGroup("g1").head != byGroup("g2").head)
  }

  test("FD skolems both views share are shared values; unique placeholders never are") {
    // Figure 3's FD policy on a duplicate pair that agrees on (title,
    // director) and lacks the year in both views: both get one skolem, a
    // value the relations share and so a §5.1 walk start. A NULL left after
    // the FD (its lhs is NULL too) becomes a per-row placeholder instead.
    def fd(df: org.apache.spark.sql.DataFrame, lhs: Seq[String], rhs: String): Relation =
      Relation.read(NullHandling.skolemizeUnique(NullHandling.enforceFd(df, lhs, rhs), Seq(rhs)))
    val r1 = fd(Seq((0L, Some("Heat"), "Mann", None: Option[String]),
      (1L, Some("Alien"), "Scott", Some("1979")), (2L, None, "Lynch", None))
      .toDF("__rid", "title", "director", "year"), Seq("title", "director"), "year")
    val r2 = fd(Seq((3L, Some("Heat"), "Mann", None: Option[String]),
      (4L, Some("Alien"), "Scott", None), (5L, None, "Lynch", None))
      .toDF("__rid", "name", "directed_by", "release_year"), Seq("name", "directed_by"), "release_year")
    val shared = Tokenization.sharedValues(r1, r2)
    def year(r: Relation, rid: Long): String = r.cells(r.rids.indexOf(rid))(2)
    val heat = Seq(year(r1, 0L), year(r2, 3L))
    assert(heat.distinct.size == 1 && isSkolem(heat.head), heat)
    assert(shared.filter(isSkolem) == Set(heat.head))
    assert(Seq(r1, r2).forall(r => Tokenization.values(r).exists(isNullPlaceholder)))
    assert(!shared.exists(isNullPlaceholder), shared)
  }

  test("each placeholder is one token, the cell itself, under S, F and O") {
    // A rhs column named with `_`, a conflicting FD group (skolem) and a row
    // whose lhs is NULL too (per-row placeholder).
    val df = Seq(
      (0L, Some("heat"), Some("1995")), (1L, Some("heat"), None: Option[String]),
      (2L, None: Option[String], None: Option[String]),
    ).toDF("__rid", "title", "release_year")
    val rel = Relation.read(NullHandling.skolemizeUnique(
      NullHandling.enforceFd(df, Seq("title"), "release_year"), Seq("release_year")))
    // the group's skolem in rows 0 and 1, row 2's own placeholder
    val placeholders = rel.values("release_year")
    assert(placeholders.size == 3 && placeholders.distinct.size == 2, placeholders)
    for {
      strategy <- Seq(Tokenization.Simple, Tokenization.Flatten, Tokenization.Overlap(Set.empty),
        Tokenization.Overlap(placeholders.toSet))
      p <- placeholders
    } assert(Tokenization.tokens(p, strategy) == Seq(p), s"$p under ${strategy.name}")
  }

  test("enforceFd preserves row count (DuckDB oracle)") {
    val df = Seq(
      (0L, "a", Some("c")), (1L, "a", Some("d")), (2L, "b", None: Option[String]),
    ).toDF("__rid", "lhs", "rhs")
    val out = NullHandling.enforceFd(df, Seq("lhs"), "rhs")
    Oracle.assertEquivalent(
      out.selectExpr("count(*) as n"),
      "SELECT count(*) as n FROM t",
      "t" -> df)
  }
}
