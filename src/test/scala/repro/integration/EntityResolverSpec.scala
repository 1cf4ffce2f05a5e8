package repro.integration

import repro.SparkSpec
import repro.core.{EmbeddingModel, NodeNames}

import scala.util.Random

class EntityResolverSpec extends SparkSpec {

  /** Build a model where rid i of D1 ([0,n)) and rid n+i of D2 are near-
    * identical vectors — ground truth is (i, n+i). */
  private def pairedModel(n: Int, dim: Int, noise: Double, seed: Long): EmbeddingModel = {
    val rng = new Random(seed)
    val base = (0 until n).map(_ => Array.fill(dim)(rng.nextGaussian().toFloat))
    val entries = (0 until n).flatMap { i =>
      val d2v = base(i).map(x => x + (rng.nextGaussian() * noise).toFloat)
      Seq(NodeNames.rid(i) -> base(i), NodeNames.rid(n + i) -> d2v)
    }
    EmbeddingModel(entries)
  }

  test("ridsIn filters by range") {
    val m = pairedModel(5, 8, 0.01, 1)
    assert(EntityResolver.ridsIn(m, 0, 5).size == 5)
    assert(EntityResolver.ridsIn(m, 5, 10).size == 5)
    assert(EntityResolver.ridsIn(m, 0, 10).size == 10)
  }

  test("clean paired embeddings match perfectly") {
    val n = 30
    val m = pairedModel(n, 16, 0.01, 2)
    val (pairs, prf) = EntityResolver.resolveAndScore(spark, m, (0, n), (n, 2 * n),
      (0 until n).map(i => (i.toLong, (n + i).toLong)).toSet, nTop = 5)
    assert(prf.f1 > 0.95, s"F=${prf.f1}")
    assert(pairs.size >= n - 2)
  }

  test("nTop=1 yields higher precision, larger nTop higher recall") {
    val n = 40
    val m = pairedModel(n, 8, 0.6, 3) // noisy: first-NN often wrong
    val gt = (0 until n).map(i => (i.toLong, (n + i).toLong)).toSet
    val (_, prf1) = EntityResolver.resolveAndScore(spark, m, (0, n), (n, 2 * n), gt, nTop = 1)
    val (_, prf10) = EntityResolver.resolveAndScore(spark, m, (0, n), (n, 2 * n), gt, nTop = 10)
    assert(prf10.recall >= prf1.recall, s"R(10)=${prf10.recall} < R(1)=${prf1.recall}")
  }

  test("matching is symmetric-safe: no rid matched twice") {
    val n = 25
    val m = pairedModel(n, 8, 0.4, 4)
    val pairs = EntityResolver.matchRids(spark, m,
      EntityResolver.ridsIn(m, 0, n), EntityResolver.ridsIn(m, n, 2 * n), nTop = 5)
    assert(pairs.map(_._1).distinct.size == pairs.size)
    assert(pairs.map(_._2).distinct.size == pairs.size)
  }

  test("empty rid sets give no matches") {
    val m = pairedModel(5, 4, 0.01, 5)
    assert(EntityResolver.matchRids(spark, m, Seq.empty, EntityResolver.ridsIn(m, 5, 10)).isEmpty)
  }

  test("resolveAndScore converts node names back to longs") {
    val n = 10
    val m = pairedModel(n, 8, 0.01, 6)
    val (pairs, _) = EntityResolver.resolveAndScore(spark, m, (0, n), (n, 2 * n),
      (0 until n).map(i => (i.toLong, (n + i).toLong)).toSet)
    pairs.foreach { case (a, b) =>
      assert(a >= 0 && a < n)
      assert(b >= n && b < 2 * n)
    }
  }

  test("nTop = 0 gives no pairs") {
    val n = 10
    val m = pairedModel(n, 8, 0.01, 7)
    assert(EntityResolver.matchRids(spark, m,
      EntityResolver.ridsIn(m, 0, n), EntityResolver.ridsIn(m, n, 2 * n), nTop = 0).isEmpty)
  }
}
