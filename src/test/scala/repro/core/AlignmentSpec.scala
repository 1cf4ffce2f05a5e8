package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class AlignmentSpec extends AnyFunSuite {

  private def randomVec(rng: Random, d: Int): Array[Float] =
    EmbeddingModel.normalize(Array.fill(d)(rng.nextGaussian().toFloat))

  private def rotate(v: Array[Float], theta: Double): Array[Float] = {
    // rotation in the (0,1) plane of a d-dim vector
    val out = v.clone()
    val c = math.cos(theta); val s = math.sin(theta)
    out(0) = (c * v(0) - s * v(1)).toFloat
    out(1) = (s * v(0) + c * v(1)).toFloat
    out
  }

  test("procrustes returns an orthogonal matrix") {
    val rng = new Random(1)
    val anchors = (0 until 20).map { _ =>
      (randomVec(rng, 6), randomVec(rng, 6))
    }
    val w = Alignment.procrustes(anchors)
    val wtw = w.t * w
    (0 until 6).foreach { i =>
      (0 until 6).foreach { j =>
        val expected = if (i == j) 1.0 else 0.0
        assert(math.abs(wtw(i, j) - expected) < 1e-8, s"WtW($i,$j)")
      }
    }
  }

  test("procrustes recovers a known rotation") {
    val rng = new Random(2)
    val theta = 0.7
    val as = (0 until 30).map(_ => randomVec(rng, 4))
    val anchors = as.map(a => (a, rotate(a, theta)))
    val w = Alignment.procrustes(anchors)
    // applying W to a fresh vector should match rotating it
    val fresh = randomVec(rng, 4)
    val expected = rotate(fresh, theta)
    val got = (0 until 4).map(i => (0 until 4).map(j => w(i, j) * fresh(j)).sum)
    expected.zip(got).foreach { case (e, g) => assert(math.abs(e - g) < 1e-4) }
  }

  test("procrustes requires at least one anchor") {
    intercept[IllegalArgumentException](Alignment.procrustes(Seq.empty))
  }

  test("align maps space A onto space B at the anchors") {
    val rng = new Random(3)
    val theta = 1.1
    val words = (0 until 40).map(i => s"w$i")
    val bVecs = words.map(w => w -> randomVec(rng, 4))
    // A = B rotated backwards, so aligning A onto B should undo the rotation.
    val aVecs = bVecs.map { case (w, v) => w -> rotate(v, -theta) }
    val modelA = EmbeddingModel(aVecs)
    val modelB = EmbeddingModel(bVecs)
    val anchors = words.take(20).map(w => (w, w))
    val aligned = Alignment.align(modelA, modelB, anchors)
    // non-anchor words should now be close to their B versions
    words.drop(20).foreach { w =>
      val c = EmbeddingModel.dot(aligned.vector(w).get, modelB.vector(w).get)
      assert(c > 0.98, s"word $w cos $c")
    }
  }

  test("align averages anchors and keeps B-only words") {
    val modelA = EmbeddingModel(Seq("shared" -> Array(1f, 0f), "aOnly" -> Array(0f, 1f)))
    val modelB = EmbeddingModel(Seq("shared" -> Array(1f, 0f), "bOnly" -> Array(0f, -1f)))
    val aligned = Alignment.align(modelA, modelB, Seq(("shared", "shared")))
    assert(aligned.contains("aOnly"))
    assert(aligned.contains("bOnly"))
    assert(aligned.contains("shared"))
  }

  test("align keeps every word of both inputs when an anchor's A and B names differ") {
    val modelA = EmbeddingModel(Seq("r1" -> Array(1f, 0f), "a" -> Array(0f, 1f)))
    val modelB = EmbeddingModel(Seq("r2" -> Array(0f, 1f), "b" -> Array(1f, 0f)))
    val aligned = Alignment.align(modelA, modelB, Seq(("r1", "r2")))
    assert(aligned.words.sorted.toSeq == Seq("a", "b", "r1", "r2"))
    // The B partner of an anchor keeps its own vector.
    assert(aligned.vector("r2").get.toSeq == modelB.vector("r2").get.toSeq)
  }

  test("align fails with no usable anchors") {
    val modelA = EmbeddingModel(Seq("a" -> Array(1f, 0f)))
    val modelB = EmbeddingModel(Seq("b" -> Array(0f, 1f)))
    intercept[IllegalArgumentException](Alignment.align(modelA, modelB, Seq(("x", "y"))))
  }
}
