package repro.core

/** In-memory embedding table with the vector-space operations the paper's
  * algorithms need: cosine similarity and gensim's `doesnt_match` (used by
  * the §7.1 MA/MR/MC quality tests: normalize, average, return the word
  * least similar to the mean).
  *
  * Vocabulary sizes here are graph-node counts (≤ a few 100k), so a
  * driver-side table is the right representation; every nearest-neighbour
  * ranking goes through [[NearestNeighbors]], which ranks row arrays on the
  * driver's cores.
  */
final class EmbeddingModel(
    val words: Array[String],
    /** L2-normalized vectors, row-aligned with `words`. */
    val vectors: Array[Array[Float]],
) extends Serializable {

  @transient lazy val index: Map[String, Int] = words.zipWithIndex.toMap

  def dim: Int = if (vectors.isEmpty) 0 else vectors(0).length
  def size: Int = words.length
  def contains(w: String): Boolean = index.contains(w)
  def vector(w: String): Option[Array[Float]] = index.get(w).map(vectors)

  /** Cosine of two already-normalized vectors = dot product. */
  def cosine(a: Array[Float], b: Array[Float]): Double = EmbeddingModel.dot(a, b)

  def cosine(w1: String, w2: String): Option[Double] =
    for (a <- vector(w1); b <- vector(w2)) yield cosine(a, b)

  /** Mean of the (normalized) vectors of `ws`, itself re-normalized;
    * None if no word is in vocabulary. */
  def meanVector(ws: Seq[String]): Option[Array[Float]] = {
    val vs = ws.flatMap(vector)
    Option.when(vs.nonEmpty)(EmbeddingModel.normalizedSum(vs, dim))
  }

  /** gensim `doesnt_match`: the input word with the lowest cosine to the
    * mean of all input vectors. Words missing from the vocabulary are
    * skipped; None if fewer than 2 words are known. */
  def doesntMatch(ws: Seq[String]): Option[String] = {
    val known = ws.filter(contains)
    if (known.size < 2) return None
    meanVector(known).map { m =>
      known.minBy(w => cosine(vector(w).get, m))
    }
  }
}

object EmbeddingModel {

  def dot(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i).toDouble * b(i); i += 1 }
    s
  }

  def normalize(v: Array[Float]): Array[Float] = {
    val n = math.sqrt(dot(v, v))
    if (n == 0) v else v.map(x => (x / n).toFloat)
  }

  /** The sum of `vs` (each `dim` long), normalized; zeros if `vs` is empty. */
  def normalizedSum(vs: Iterable[Array[Float]], dim: Int): Array[Float] = {
    val acc = new Array[Float](dim)
    vs.foreach { v => var i = 0; while (i < dim) { acc(i) += v(i); i += 1 } }
    normalize(acc)
  }

  /** Build from raw (unnormalized) vectors. */
  def apply(pairs: Seq[(String, Array[Float])]): EmbeddingModel = {
    val sorted = pairs.sortBy(_._1)
    new EmbeddingModel(sorted.map(_._1).toArray, sorted.map(p => normalize(p._2)).toArray)
  }
}
