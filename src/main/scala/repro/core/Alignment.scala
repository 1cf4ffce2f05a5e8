package repro.core

import breeze.linalg.{svd, DenseMatrix}

/** Embedding alignment via orthogonal Procrustes (§5.4, Algorithm 4),
  * adapted from multilingual embedding translation.
  *
  * Given two embedding spaces A (relation 1) and B (relation 2) and a set of
  * anchor words present in both, find the orthogonal `W*` minimizing
  * `‖W·A − B‖_F` over the anchor columns (closed form: `W = U·Vᵀ` from the
  * SVD `B·Aᵀ = U·Σ·Vᵀ`), rotate all of A by `W*`, and average the anchors.
  */
object Alignment {

  /** The orthogonal translation matrix (dim × dim) for anchor pairs
    * (vecInA, vecInB). Requires ≥ 1 anchor. */
  def procrustes(anchors: Seq[(Array[Float], Array[Float])]): DenseMatrix[Double] = {
    require(anchors.nonEmpty, "need at least one anchor pair")
    val d = anchors.head._1.length
    val A = DenseMatrix.zeros[Double](d, anchors.size)
    val B = DenseMatrix.zeros[Double](d, anchors.size)
    anchors.zipWithIndex.foreach { case ((a, b), j) =>
      var i = 0
      while (i < d) { A(i, j) = a(i); B(i, j) = b(i); i += 1 }
    }
    val m = B * A.t
    val svd.SVD(u, _, vt) = svd(m)
    u * vt
  }

  private def applyW(w: DenseMatrix[Double], v: Array[Float]): Array[Float] = {
    val d = v.length
    val out = new Array[Float](d)
    var i = 0
    while (i < d) {
      var s = 0.0; var j = 0
      while (j < d) { s += w(i, j) * v(j); j += 1 }
      out(i) = s.toFloat
      i += 1
    }
    out
  }

  /** Algorithm 4: align `modelA` onto `modelB`'s space using the given
    * anchor words (RIDs/CIDs candidate matches, or shared tokens).
    * Output space: every word of A rotated, an anchor's A word averaged
    * with its B partner; every word of B that A does not name, as-is. */
  def align(modelA: EmbeddingModel, modelB: EmbeddingModel,
            anchors: Seq[(String, String)]): EmbeddingModel = {
    val pairs = anchors.flatMap { case (wa, wb) =>
      for (a <- modelA.vector(wa); b <- modelB.vector(wb)) yield (a, b)
    }
    require(pairs.nonEmpty, "no anchor is present in both models")
    val w = procrustes(pairs)
    val anchorBByA = anchors.toMap
    val rotated: Seq[(String, Array[Float])] = modelA.words.toSeq.map { word =>
      val r = EmbeddingModel.normalize(applyW(w, modelA.vector(word).get))
      anchorBByA.get(word).flatMap(modelB.vector) match {
        case Some(b) =>
          val avg = r.zip(b).map { case (x, y) => ((x + y) / 2).toFloat }
          word -> EmbeddingModel.normalize(avg)
        case None => word -> r
      }
    }
    val bOnly = modelB.words.toSeq
      .filterNot(modelA.contains)
      .map(wb => wb -> modelB.vector(wb).get)
    EmbeddingModel(rotated ++ bOnly)
  }
}
