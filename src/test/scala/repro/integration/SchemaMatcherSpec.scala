package repro.integration

import repro.{SparkSpec, TestFixtures}
import repro.core.{EmbeddingModel, NodeNames, Relation}

class SchemaMatcherSpec extends SparkSpec {

  private def v(xs: Double*): Array[Float] = xs.map(_.toFloat).toArray

  test("mutual nearest neighbours match on hand-built embeddings") {
    val model = EmbeddingModel(Seq(
      NodeNames.cid(1, "a") -> v(1, 0, 0),
      NodeNames.cid(1, "b") -> v(0, 1, 0),
      NodeNames.cid(2, "x") -> v(0.95, 0.05, 0),
      NodeNames.cid(2, "y") -> v(0.05, 0.95, 0),
    ))
    val got = SchemaMatcher.matchCids(model,
      Seq(NodeNames.cid(1, "a"), NodeNames.cid(1, "b")),
      Seq(NodeNames.cid(2, "x"), NodeNames.cid(2, "y"))).toSet
    assert(got == Set(
      (NodeNames.cid(1, "a"), NodeNames.cid(2, "x")),
      (NodeNames.cid(1, "b"), NodeNames.cid(2, "y"))))
  }

  test("non-mutual preference resolves by candidate elimination") {
    // c1a prefers c2x; c2x prefers c1b. After mutual rejection c1a should
    // fall back to c2y.
    val model = EmbeddingModel(Seq(
      "cid__1__a" -> v(0.9, 0.1, 0),
      "cid__1__b" -> v(1, 0, 0),
      "cid__2__x" -> v(1, 0.02, 0),
      "cid__2__y" -> v(0.8, 0.3, 0),
    ))
    val got = SchemaMatcher.matchCids(model,
      Seq("cid__1__a", "cid__1__b"), Seq("cid__2__x", "cid__2__y")).toSet
    assert(got.contains(("cid__1__b", "cid__2__x")))
    assert(got.contains(("cid__1__a", "cid__2__y")))
  }

  test("unmatched columns stay unmatched") {
    val model = EmbeddingModel(Seq(
      "cid__1__a" -> v(1, 0),
      "cid__2__x" -> v(1, 0),
      "cid__2__z" -> v(-1, 0),
    ))
    val got = SchemaMatcher.matchCids(model, Seq("cid__1__a"), Seq("cid__2__x", "cid__2__z"))
    assert(got == Seq(("cid__1__a", "cid__2__x")))
  }

  test("columns missing from the model are skipped") {
    val model = EmbeddingModel(Seq("cid__1__a" -> v(1, 0)))
    val got = SchemaMatcher.matchCids(model, Seq("cid__1__a", "cid__1__gone"), Seq("cid__2__gone2"))
    assert(got.isEmpty)
  }

  test("toColumnPairs strips CID prefixes") {
    val got = SchemaMatcher.toColumnPairs(Seq((NodeNames.cid(1, "title"), NodeNames.cid(2, "name"))))
    assert(got == Seq(("title", "name")))
  }

  test("toColumnPairs keeps underscores inside column names") {
    val got = SchemaMatcher.toColumnPairs(Seq(
      (NodeNames.cid(1, "country_code"), NodeNames.cid(2, "beer_name"))))
    assert(got == Seq(("country_code", "beer_name")))
  }

  test("Base bag-of-words matcher aligns identical-domain columns") {
    import spark.implicits._
    val d1 = Seq((0L, "red", "alpha"), (1L, "blue", "beta")).toDF("__rid", "color", "greek")
    val d2 = Seq((2L, "alpha", "red"), (3L, "beta", "green")).toDF("__rid", "letter", "paint")
    val got = SchemaMatcher.matchBase(Relation.read(d1), Relation.read(d2)).toSet
    assert(got.contains(("greek", "letter")))
    assert(got.contains(("color", "paint")))
  }

  test("Base matcher on the tiny scenario recovers most column matches") {
    val sc = TestFixtures.tiny
    val Seq(r1, r2) = TestFixtures.tinyRelations
    val got = SchemaMatcher.matchBase(r1, r2).toSet
    val gt = sc.colMatches.toSet
    val prf = Metrics.prf(got, gt)
    assert(prf.recall >= 0.5, s"Base matcher recall ${prf.recall}, got $got")
  }
}
