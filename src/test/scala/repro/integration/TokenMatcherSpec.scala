package repro.integration

import repro.{SparkSpec, TestFixtures}
import repro.core.{EmbDI, EmbeddingModel, Tokenization}

class TokenMatcherSpec extends SparkSpec {

  private def v(xs: Double*): Array[Float] = xs.map(_.toFloat).toArray

  test("domain extracts distinct normalized tokens") {
    import spark.implicits._
    val df = Seq((0L, "Denmark"), (1L, "France"), (2L, "denmark"), (3L, null.asInstanceOf[String]))
      .toDF("__rid", "country")
    assert(TokenMatcher.domain(df, "country") == Seq("denmark", "france"))
  }

  test("embedding matcher announces the first in-domain neighbour") {
    val model = EmbeddingModel(Seq(
      "denmark" -> v(1, 0, 0), "dk" -> v(0.97, 0.1, 0),
      "france" -> v(0, 1, 0), "fr" -> v(0.05, 0.97, 0),
    ))
    val got = TokenMatcher.matchByEmbedding(model, Seq("denmark", "france"), Seq("dk", "fr"))
    assert(got.toSet == Set(("denmark", "dk"), ("france", "fr")))
  }

  test("embedding matcher skips tokens missing from the model") {
    val model = EmbeddingModel(Seq("denmark" -> v(1, 0), "dk" -> v(1, 0.1)))
    val got = TokenMatcher.matchByEmbedding(model, Seq("denmark", "unknown"), Seq("dk"))
    assert(got == Seq(("denmark", "dk")))
  }

  test("a token in both domains never matches itself") {
    val model = EmbeddingModel(Seq("dk" -> v(1, 0), "denmark" -> v(0.9, 0.1), "fr" -> v(0, 1)))
    val got = TokenMatcher.matchByEmbedding(model, Seq("dk", "fr"), Seq("dk", "denmark", "fr"))
    assert(got == Seq(("dk", "denmark"), ("fr", "denmark")))
    assert(TokenMatcher.matchByEmbedding(model, Seq("dk"), Seq("dk")).isEmpty)
  }

  test("jaccard matcher pairs string-similar tokens") {
    val got = TokenMatcher.matchByJaccard(
      Seq("photoshop", "illustrator"), Seq("photoshopcs", "illustratorcc", "random"))
    assert(got.toSet == Set(("photoshop", "photoshopcs"), ("illustrator", "illustratorcc")))
  }

  test("jaccard matcher fails on abbreviations with no shared trigrams") {
    val got = TokenMatcher.matchByJaccard(Seq("denmark"), Seq("dk"))
    assert(got.isEmpty) // exactly the failure mode that motivates embeddings
  }

  test("score computes PRF over token pairs") {
    val prf = TokenMatcher.score(
      Seq(("denmark", "dk"), ("france", "it")),
      Seq(("denmark", "dk"), ("france", "fr")))
    assert(prf.precision == 0.5 && prf.recall == 0.5)
  }

  test("embedding matcher recovers planted synonyms from an EmbDI model") {
    import spark.implicits._
    // Row i of D1 and row i of D2 describe one item: same name, its country
    // spelled out on one side and as a code on the other.
    val synonyms = Seq("denmark" -> "dk", "france" -> "fr", "italy" -> "it",
      "germany" -> "de", "spain" -> "es", "sweden" -> "se")
    val rows = (0 until 120).map(i => (s"item$i", synonyms(i % synonyms.size)))
    val d1 = rows.zipWithIndex.map { case ((name, (full, _)), i) => (i.toLong, name, full) }
      .toDF("__rid", "name", "country")
    val d2 = rows.zipWithIndex.map { case ((name, (_, code)), i) => (1000L + i, name, code) }
      .toDF("__rid", "title", "country_code")
    val model = EmbDI.run(spark, Seq(d1, d2), TestFixtures.testConfig(Tokenization.Simple)).model
    val got = TokenMatcher.matchByEmbedding(model,
      TokenMatcher.domain(d1, "country"), TokenMatcher.domain(d2, "country_code"))
    val prf = TokenMatcher.score(got, synonyms)
    info(f"planted-synonym F1 ${prf.f1}%.3f")
    assert(prf.f1 > 0, s"F1 ${prf.f1}: $got")
  }
}
