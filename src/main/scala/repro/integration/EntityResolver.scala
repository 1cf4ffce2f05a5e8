package repro.integration

import org.apache.spark.sql.SparkSession
import repro.core.{EmbeddingModel, NodeNames}

/** Entity Resolution (§6, Algorithm 6): unsupervised matching of RID
  * embeddings. For every RID the `n_top` closest RIDs *of the other dataset*
  * form its candidate list; pairs are emitted when the closeness is mutual.
  * `n_top` trades precision for recall (paper Table 5): a short list only
  * allows strict mutual-first matches, a longer one lets second choices
  * match after their better candidates are taken.
  */
object EntityResolver {

  /** RID node names of a model that fall in the given rid range. */
  def ridsIn(model: EmbeddingModel, fromRid: Long, untilRid: Long): Seq[String] =
    model.words.iterator
      .filter(NodeNames.isRid)
      .filter { n => val r = NodeNames.ridValue(n); r >= fromRid && r < untilRid }
      .toSeq

  /** Match RIDs of dataset 1 (`rids1`) against dataset 2 (`rids2`); RIDs
    * without a vector are skipped. Returns (rid1 node, rid2 node) pairs.
    * Candidates are the `nTop` nearest-neighbour lists of both directions
    * (driver-side; `spark` is unused). Algorithm 6 takes a's candidates from
    * a's own list and every b whose list holds a; each such extra b scores
    * at most a's `nTop`-th best, so the top `nTop` of that union is a's own
    * list, up to exact score ties at the boundary. */
  def matchRids(spark: SparkSession, model: EmbeddingModel,
                rids1: Seq[String], rids2: Seq[String],
                nTop: Int = 10, maxIterations: Int = 10): Seq[(String, String)] =
    // d(r_i) for both directions (Algorithm 6 line 3: i ≠ j).
    SchemaMatcher.matchVectors(model, rids1, rids2, nTop, maxIterations)

  /** Convenience: resolve matches and score them against ground-truth rid
    * pairs (as plain longs). */
  def resolveAndScore(spark: SparkSession, model: EmbeddingModel,
                      rids1Range: (Long, Long), rids2Range: (Long, Long),
                      groundTruth: Set[(Long, Long)], nTop: Int = 10): (Seq[(Long, Long)], PRF) = {
    val pairs = matchRids(spark, model,
      ridsIn(model, rids1Range._1, rids1Range._2),
      ridsIn(model, rids2Range._1, rids2Range._2), nTop)
      .map { case (a, b) => (NodeNames.ridValue(a), NodeNames.ridValue(b)) }
    (pairs, Metrics.prf(pairs.toSet, groundTruth))
  }
}
