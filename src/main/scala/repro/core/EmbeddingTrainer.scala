package repro.core

import org.apache.spark.ml.feature.Word2Vec
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel

/** Embedding construction (§4.3) on top of Spark MLlib's Word2Vec
  * (distributed skip-gram with hierarchical softmax).
  *
  * The paper's default is 300 dimensions / window 3 / skip-gram; dimension
  * is a runtime knob here (benches use 64 — §7.3 reports "limited, mixed
  * effects" of dimensionality, and our ablation bench re-checks that).
  * CBOW is not available in MLlib; see DESIGN.md §3.
  */
object EmbeddingTrainer {

  final case class W2VConfig(
      dim: Int = 64,
      window: Int = 3,
      minCount: Int = 2,
      maxIter: Int = 1,
      stepSize: Double = 0.025,
      numPartitions: Int = 8,
      seed: Long = 99L,
  )

  /** Train on a `sentence: array<string>` DataFrame (the walker output). */
  def train(corpus: DataFrame, cfg: W2VConfig = W2VConfig()): EmbeddingModel = {
    val w2v = new Word2Vec()
      .setInputCol("sentence")
      .setOutputCol("ignored")
      .setVectorSize(cfg.dim)
      .setWindowSize(cfg.window)
      .setMinCount(cfg.minCount)
      .setMaxIter(cfg.maxIter)
      .setStepSize(cfg.stepSize)
      .setNumPartitions(cfg.numPartitions)
      .setSeed(cfg.seed)
    val model = w2v.fit(corpus)
    val pairs = model.getVectors.collect().map { r =>
      r.getString(0) -> r.getAs[org.apache.spark.ml.linalg.Vector](1).toArray.map(_.toFloat)
    }
    EmbeddingModel(pairs.toIndexedSeq)
  }

  /** A model trained on a walk corpus, with the corpus size and the walk (W)
    * and train (E) wall-clock times of Table 6. */
  final case class Trained(model: EmbeddingModel, nSentences: Long, walkMs: Long, trainMs: Long)

  /** Build `corpus`, materialise it (so W is real walk time, not deferred
    * into E), train on it, then release it. */
  def walkThenTrain(corpus: => DataFrame, cfg: W2VConfig): Trained = {
    val t0 = System.nanoTime()
    val c = corpus.persist(StorageLevel.MEMORY_AND_DISK)
    val nSentences = c.count()
    val t1 = System.nanoTime()
    val model = train(c, cfg)
    val t2 = System.nanoTime()
    c.unpersist()
    Trained(model, nSentences, (t1 - t0) / 1_000_000L, (t2 - t1) / 1_000_000L)
  }
}
