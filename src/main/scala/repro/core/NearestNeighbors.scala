package repro.core

import org.apache.spark.sql.SparkSession

import java.util.stream.IntStream

/** Exact top-k cosine search on the driver over L2-normalized vectors (as
  * [[EmbeddingModel]] produces them), scored with [[EmbeddingModel.dot]].
  * Queries are split across the driver's cores; each query's list depends
  * only on its own row, so the output does not depend on the split.
  */
object NearestNeighbors {

  /** Per query, the selected target indices and their scores, best first. */
  final case class Ranked(ids: Array[Array[Int]], scores: Array[Array[Double]])

  /** The `k` best targets of every query by score descending, then target
    * index ascending. Query `q` never ranks target `skip(q)` (-1: none);
    * `k <= 0` gives empty lists. */
  def rank(queries: Array[Array[Float]], targets: Array[Array[Float]], k: Int,
           skip: Int => Int = _ => -1): Ranked = {
    val cap = math.max(0, math.min(k, targets.length))
    val r = Ranked(new Array(queries.length), new Array(queries.length))
    IntStream.range(0, queries.length).parallel().forEach { q =>
      // Sorted insertion: targets arrive in index order and displace only
      // strictly lower scores, so ties keep the lower index.
      val is = new Array[Int](cap); val ss = new Array[Double](cap)
      val self = skip(q)
      var n = 0; var t = 0
      while (t < targets.length) {
        if (t != self && cap > 0) {
          val s = EmbeddingModel.dot(queries(q), targets(t))
          if (n < cap || s > ss(n - 1)) {
            var p = math.min(n, cap - 1)
            while (p > 0 && s > ss(p - 1)) { is(p) = is(p - 1); ss(p) = ss(p - 1); p -= 1 }
            is(p) = t; ss(p) = s; n = math.min(n + 1, cap)
          }
        }
        t += 1
      }
      r.ids(q) = is.take(n); r.scores(q) = ss.take(n)
    }
    r
  }

  /** [[rank]] over named rows of `model`: the `k` best `to` indices of each
    * `from` name. Every name must have a vector in `model`; a name on both
    * sides never ranks itself (`to` holds each name once). */
  def rankNames(model: EmbeddingModel, from: IndexedSeq[String], to: IndexedSeq[String],
                k: Int): Array[Array[Int]] = {
    val at = to.zipWithIndex.toMap
    def vectors(names: IndexedSeq[String]) = names.map(n => model.vectors(model.index(n))).toArray
    rank(vectors(from), vectors(to), k, i => at.getOrElse(from(i), -1)).ids
  }

  /** For each (name, vector) query, the k most-similar targets, descending.
    * A query that is also a target never matches itself. Names are mapped
    * to indices once for [[rank]]; `spark` is unused. The program ranks
    * through [[rankNames]]; this map form serves the `perfbench/` harness. */
  def topK(spark: SparkSession,
           queries: Seq[(String, Array[Float])],
           targets: Seq[(String, Array[Float])],
           k: Int): Map[String, Seq[(String, Double)]] = {
    if (queries.isEmpty || targets.isEmpty) return Map.empty
    val (qNames, tNames) = (queries.map(_._1).toArray, targets.map(_._1).toArray)
    val tIndex = tNames.zipWithIndex.toMap
    val r = rank(queries.map(_._2).toArray, targets.map(_._2).toArray, k,
      q => tIndex.getOrElse(qNames(q), -1))
    qNames.indices.map(q => qNames(q) -> r.ids(q).toSeq.map(tNames).zip(r.scores(q))).toMap
  }
}
