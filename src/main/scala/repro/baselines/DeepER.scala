package repro.baselines

import org.apache.spark.ml.classification.LogisticRegression
import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.SparkSession
import repro.core.{EmbeddingModel, Relation, Tokenization}
import repro.integration.{Metrics, PRF}

import scala.util.Random

/** Stand-in for DeepER (PVLDB'18) — the supervised ER system of Table 4.
  *
  * Architecture kept from the DeepER paper's "composition" variant: a tuple
  * is represented per attribute by the average of its token embeddings; a
  * candidate pair becomes a similarity-feature vector (per aligned attribute
  * the cosine of the two attribute vectors, plus the whole-tuple cosine);
  * a classifier is trained on a small labeled sample (paper: 5 % of ground
  * truth). The pairs it classifies are the benchmark's labeled candidate
  * (blocking) pairs.
  *
  *  - `DeepERP`: features from the pre-trained space.
  *  - `DeepERL`: features from EmbDI local token embeddings.
  *  - `tuned = true` reproduces the "task specific" columns: the §7.2
  *    fine-tuning (an extra learned weight matrix over the embedding lookup)
  *    is substituted by a degree-2 feature expansion, giving the classifier
  *    the same extra capacity to reshape the embedding space for ER.
  */
object DeepER {

  final case class Config(
      labelFraction: Double = 0.05,
      tuned: Boolean = false,
      seed: Long = 31337L,
  )

  /** Per-rid attribute vectors + tuple vector from token embeddings. */
  private def tupleVectors(rel: Relation, cols: Seq[String], model: EmbeddingModel,
                           strategy: Tokenization.Strategy)
      : Map[Long, (Array[Array[Float]], Array[Float])] = {
    val dim = model.dim
    val js = cols.map(rel.columnIndex)
    rel.rids.indices.map { r =>
      val attrVecs = js.map(j => EmbeddingModel.normalizedSum(
        Tokenization.tokens(rel.cells(r)(j), strategy).flatMap(model.vector), dim)).toArray
      rel.rids(r) -> (attrVecs, EmbeddingModel.normalizedSum(attrVecs, dim))
    }.toMap
  }

  private def features(a: (Array[Array[Float]], Array[Float]),
                       b: (Array[Array[Float]], Array[Float]),
                       tuned: Boolean): Array[Double] = {
    val attrCos = a._1.zip(b._1).map { case (x, y) => EmbeddingModel.dot(x, y) }
    val base = attrCos :+ EmbeddingModel.dot(a._2, b._2)
    if (!tuned) base
    else {
      // Degree-2 expansion: squares + pairwise products.
      val sq = base.map(x => x * x)
      val cross = for (i <- base.indices; j <- i + 1 until base.length) yield base(i) * base(j)
      base ++ sq ++ cross
    }
  }

  /** Run supervised ER over a scenario's aligned columns, classifying the
    * labeled `candidatePairs` of the benchmark (the Magellan protocol:
    * classify blocking candidates). Returns the PRF over the ground-truth
    * pairs not used for training. */
  def run(spark: SparkSession, r1: Relation, r2: Relation,
          alignedCols: Seq[(String, String)], model: EmbeddingModel,
          strategy: Tokenization.Strategy, groundTruth: Set[(Long, Long)],
          candidatePairs: Seq[(Long, Long, Boolean)], cfg: Config = Config()): PRF = {
    val rng = new Random(cfg.seed)
    val v1 = tupleVectors(r1, alignedCols.map(_._1), model, strategy)
    val v2 = tupleVectors(r2, alignedCols.map(_._2), model, strategy)
    val candidates: Set[(Long, Long)] = candidatePairs.map(p => (p._1, p._2)).toSet

    // Label split: labelFraction of GT positives (+ negatives) for training.
    val positives = groundTruth.toSeq.sortBy(identity)
    val nTrainPos = math.max(1, (positives.size * cfg.labelFraction).round.toInt)
    val trainPos = rng.shuffle(positives).take(nTrainPos).toSet
    val negatives = candidates.diff(groundTruth).toSeq.sortBy(identity)
    val trainNeg = rng.shuffle(negatives).take(nTrainPos * 3).toSet

    def featRow(p: (Long, Long)): Option[Array[Double]] =
      for (a <- v1.get(p._1); b <- v2.get(p._2)) yield features(a, b, cfg.tuned)

    import spark.implicits._
    val trainRows = (trainPos.toSeq.map(p => (p, 1.0)) ++ trainNeg.toSeq.map(p => (p, 0.0)))
      .flatMap { case (p, y) => featRow(p).map(f => (y, Vectors.dense(f))) }
    if (trainRows.isEmpty || trainRows.map(_._1).distinct.size < 2) return PRF(0, 0)
    val train = trainRows.toDF("label", "features")

    val lr = new LogisticRegression().setMaxIter(60).setRegParam(1e-4)
    val lrModel = lr.fit(train)

    // Score every non-training candidate pair.
    val testPairs = (candidates ++ groundTruth).diff(trainPos).diff(trainNeg).toSeq.sortBy(identity)
    val test = testPairs.flatMap(p => featRow(p).map(f => (p._1, p._2, Vectors.dense(f))))
      .toDF("r1", "r2", "features")
    val pred = lrModel.transform(test)
      .select("r1", "r2", "prediction").collect()
      .filter(_.getDouble(2) >= 0.5)
      .map(r => (r.getLong(0), r.getLong(1))).toSet

    Metrics.prf(pred, groundTruth.diff(trainPos))
  }
}
