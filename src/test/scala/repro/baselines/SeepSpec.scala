package repro.baselines

import repro.{SparkSpec, TestFixtures}
import repro.core.{Relation, Tokenization}
import repro.integration.Metrics

class SeepSpec extends SparkSpec {

  test("SeepP matches columns whose labels or instances align") {
    import spark.implicits._
    val d1 = Seq((0L, "denmark", "red"), (1L, "france", "blue")).toDF("__rid", "country", "color")
    val d2 = Seq((2L, "denmark", "red"), (3L, "spain", "green")).toDF("__rid", "country_code", "paint")
    val got = Seep.runPretrained(Relation.read(d1), Relation.read(d2)).toSet
    assert(got.contains(("country", "country_code")))
  }

  test("SeepP suffers with opaque labels and disjoint instances") {
    import spark.implicits._
    // labels share no substring; instances disjoint → similarity is noise
    val d1 = Seq((0L, "aaa1", "bbb1"), (1L, "aaa2", "bbb2")).toDF("__rid", "zq", "kx")
    val d2 = Seq((2L, "ccc1", "ddd1"), (3L, "ccc2", "ddd2")).toDF("__rid", "wm", "vy")
    val got = Seep.runPretrained(Relation.read(d1), Relation.read(d2))
    val gt = Set(("zq", "wm"), ("kx", "vy"))
    assert(Metrics.prf(got.toSet, gt).f1 <= 0.5)
  }

  test("SeepL with EmbDI embeddings recovers tiny-scenario matches") {
    val sc = TestFixtures.tiny
    val Seq(r1, r2) = TestFixtures.tinyRelations
    val model = TestFixtures.tinyEmbDI.model
    val got = Seep.runLocal(r1, r2, model, Tokenization.Overlap(TestFixtures.tinyShared))
    val prf = Metrics.prf(got.toSet, sc.colMatches.toSet)
    assert(prf.f1 > 0.4, s"SeepL F=${prf.f1} got=$got")
  }

  test("SeepL beats SeepP on the tiny scenario (the Table 3 shape)") {
    val sc = TestFixtures.tiny
    val Seq(r1, r2) = TestFixtures.tinyRelations
    val gt = sc.colMatches.toSet
    val p = Metrics.prf(Seep.runPretrained(r1, r2).toSet, gt)
    val l = Metrics.prf(Seep.runLocal(r1, r2, TestFixtures.tinyEmbDI.model,
      Tokenization.Overlap(TestFixtures.tinyShared)).toSet, gt)
    assert(l.f1 >= p.f1, s"SeepL ${l.f1} < SeepP ${p.f1}")
  }
}
