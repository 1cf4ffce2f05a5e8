package repro.core

import org.scalatest.funsuite.AnyFunSuite

class EmbeddingModelSpec extends AnyFunSuite {

  private def v(xs: Double*): Array[Float] = xs.map(_.toFloat).toArray

  private val model = EmbeddingModel(Seq(
    "east"  -> v(1, 0, 0),
    "eastish" -> v(0.9, 0.1, 0),
    "north" -> v(0, 1, 0),
    "up"    -> v(0, 0, 1),
    "west"  -> v(-1, 0, 0),
  ))

  test("vectors are L2-normalized on construction") {
    val m = EmbeddingModel(Seq("a" -> v(3, 4, 0)))
    val n = m.vector("a").get
    assert(math.abs(EmbeddingModel.dot(n, n) - 1.0) < 1e-6)
  }

  test("cosine of identical vectors is 1") {
    assert(math.abs(model.cosine("east", "east").get - 1.0) < 1e-6)
  }

  test("cosine of orthogonal vectors is 0") {
    assert(math.abs(model.cosine("east", "north").get) < 1e-6)
  }

  test("cosine of opposite vectors is -1") {
    assert(math.abs(model.cosine("east", "west").get + 1.0) < 1e-6)
  }

  test("cosine is None for unknown words") {
    assert(model.cosine("east", "missing").isEmpty)
  }

  test("meanVector averages and renormalizes") {
    val m = model.meanVector(Seq("east", "north")).get
    assert(math.abs(m(0) - m(1)) < 1e-6)
    assert(math.abs(EmbeddingModel.dot(m, m) - 1.0) < 1e-6)
  }

  test("meanVector skips unknown words") {
    assert(model.meanVector(Seq("missing1", "east")).get.sameElements(model.vector("east").get))
    assert(model.meanVector(Seq("missing")).isEmpty)
  }

  test("doesntMatch singles out the outlier") {
    assert(model.doesntMatch(Seq("east", "eastish", "up")).contains("up"))
  }

  test("doesntMatch ignores unknown words") {
    assert(model.doesntMatch(Seq("east", "eastish", "up", "zzz")).contains("up"))
  }

  test("doesntMatch needs at least two known words") {
    assert(model.doesntMatch(Seq("east", "zzz")).isEmpty)
    assert(model.doesntMatch(Seq.empty).isEmpty)
  }

  test("normalize of zero vector is identity") {
    val z = new Array[Float](3)
    assert(EmbeddingModel.normalize(z).sameElements(z))
  }

  test("dim and size report correctly") {
    assert(model.dim == 3)
    assert(model.size == 5)
  }
}
