package repro.core

import repro.SparkSpec

import scala.util.Random

class NearestNeighborsSpec extends SparkSpec {

  private def randomVecs(n: Int, dim: Int, seed: Long, prefix: String = "w")
      : Seq[(String, Array[Float])] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      s"$prefix$i" -> EmbeddingModel.normalize(Array.fill(dim)(rng.nextGaussian().toFloat))
    }
  }

  test("topK matches brute force") {
    // disjoint name spaces: same-name exclusion is tested separately
    val qs = randomVecs(20, 16, 1, "q")
    val ts = randomVecs(50, 16, 2, "t")
    val got = NearestNeighbors.topK(spark, qs, ts, 5)
    qs.foreach { case (q, qv) =>
      val brute = ts.map { case (t, tv) => t -> EmbeddingModel.dot(qv, tv) }
        .sortBy(-_._2).take(5).map(_._1)
      assert(got(q).map(_._1) == brute, s"query $q")
    }
  }

  test("topK scores are descending") {
    val got = NearestNeighbors.topK(spark, randomVecs(10, 8, 3), randomVecs(30, 8, 4), 7)
    got.values.foreach { ns =>
      ns.sliding(2).foreach {
        case Seq((_, a), (_, b)) => assert(a >= b)
        case _ =>
      }
    }
  }

  test("a query never matches itself") {
    val vs = randomVecs(10, 8, 5)
    val got = NearestNeighbors.topK(spark, vs, vs, 3)
    got.foreach { case (q, ns) => assert(!ns.map(_._1).contains(q)) }
  }

  test("k larger than target count returns all targets") {
    val got = NearestNeighbors.topK(spark, randomVecs(3, 4, 6, "q"), randomVecs(4, 4, 7, "t"), 100)
    got.values.foreach(ns => assert(ns.size == 4))
  }

  test("empty inputs yield empty results") {
    assert(NearestNeighbors.topK(spark, Seq.empty, randomVecs(3, 4, 8), 2).isEmpty)
    assert(NearestNeighbors.topK(spark, randomVecs(3, 4, 9), Seq.empty, 2).isEmpty)
  }

  /** Every target but `skip`, by score descending, then target index. */
  private def brute(q: Array[Float], ts: Array[Array[Float]], k: Int, skip: Int): Seq[(Int, Double)] =
    ts.indices.filter(_ != skip).map(t => t -> EmbeddingModel.dot(q, ts(t))).sortBy(-_._2).take(k)

  test("rank equals brute force; tied targets come in index order") {
    // Each target vector appears three times in a row: exact score ties.
    val base = randomVecs(20, 8, 11).map(_._2)
    val ts = base.flatMap(v => Seq(v, v.clone, v.clone)).toArray
    val qs = (randomVecs(15, 8, 12).map(_._2) ++ base.take(3)).toArray
    val skip = (q: Int) => if (q % 4 == 0) q else -1
    for (k <- Seq(1, 2, 4, 7, 59, 60, 100)) {
      val r = NearestNeighbors.rank(qs, ts, k, skip)
      qs.indices.foreach { q =>
        val want = brute(qs(q), ts, k, skip(q))
        assert(r.ids(q).toSeq == want.map(_._1), s"k=$k q=$q")
        assert(r.scores(q).toSeq == want.map(_._2), s"k=$k q=$q")
        assert(!r.ids(q).contains(skip(q)))
      }
    }
    // k beyond the target count returns every target but the skipped one.
    assert(NearestNeighbors.rank(qs, ts, 100, skip).ids(0).length == ts.length - 1)
  }

  test("rank output does not depend on the parallel split") {
    val qs = randomVecs(400, 16, 13).map(_._2).toArray
    val ts = randomVecs(300, 16, 14).map(_._2).toArray
    val first = NearestNeighbors.rank(qs, ts, 10)
    (1 to 20).foreach { _ =>
      val again = NearestNeighbors.rank(qs, ts, 10)
      assert(again.ids.map(_.toSeq).toSeq == first.ids.map(_.toSeq).toSeq)
      assert(again.scores.map(_.toSeq).toSeq == first.scores.map(_.toSeq).toSeq)
    }
  }

  test("k <= 0 gives empty lists") {
    val qs = randomVecs(3, 4, 15, "q"); val ts = randomVecs(5, 4, 16, "t")
    Seq(0, -2).foreach { k =>
      assert(NearestNeighbors.rank(qs.map(_._2).toArray, ts.map(_._2).toArray, k).ids.forall(_.isEmpty))
      val got = NearestNeighbors.topK(spark, qs, ts, k)
      assert(got.keySet == qs.map(_._1).toSet && got.values.forall(_.isEmpty))
    }
  }
}
