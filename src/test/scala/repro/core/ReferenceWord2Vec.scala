package repro.core

import org.apache.spark.ml.feature.Word2Vec
import org.apache.spark.sql.DataFrame

/** `EmbeddingTrainer.train` as it was before the driver-side trainer: Spark
  * MLlib's `ml.feature.Word2Vec` (skip-gram, hierarchical softmax). Kept as
  * the reference that [[EmbeddingTrainerSpec]] compares the new trainer's
  * downstream quality against. The removed config field `numPartitions` is
  * an argument; the step size is the trainer's constant.
  */
object ReferenceWord2Vec {

  def train(corpus: DataFrame, cfg: EmbeddingTrainer.W2VConfig,
            numPartitions: Int = 1): EmbeddingModel = {
    val w2v = new Word2Vec()
      .setInputCol("sentence")
      .setOutputCol("ignored")
      .setVectorSize(cfg.dim)
      .setWindowSize(cfg.window)
      .setMinCount(cfg.minCount)
      .setMaxIter(cfg.maxIter)
      .setStepSize(EmbeddingTrainer.StepSize)
      .setNumPartitions(numPartitions)
      .setSeed(cfg.seed)
    val model = w2v.fit(corpus)
    val pairs = model.getVectors.collect().map { r =>
      r.getString(0) -> r.getAs[org.apache.spark.ml.linalg.Vector](1).toArray.map(_.toFloat)
    }
    EmbeddingModel(pairs.toIndexedSeq)
  }
}
