package repro.baselines

import repro.core.{EmbeddingModel, NodeNames, Relation, Tokenization}

import scala.util.Random

/** Stand-in for fastText pre-trained vectors (DESIGN.md §3).
  *
  * A real pre-trained space gives the paper's baselines exactly two
  * properties: (1) string/subword-similar tokens have correlated vectors
  * (fastText composes character n-gram vectors), and (2) the space knows
  * *nothing* about the co-occurrence structure of the dataset at hand. We
  * reproduce both: every character n-gram (3..5) hashes to a fixed random
  * Gaussian vector and a token's vector is the normalized sum over its
  * n-grams — deterministic, vocabulary-independent, dataset-agnostic.
  *
  * Tuple/attribute vectors (needed to run ER/SM with pre-trained spaces)
  * are averaged from token vectors, which is how DeepER/DeepMatcher and the
  * paper's fastText baseline compose non-vocabulary units.
  */
object PretrainedEmbeddings {

  val DefaultDim = 64

  private def gramVector(gram: String, dim: Int): Array[Float] = {
    val rng = new Random(gram.hashCode.toLong * 2_654_435_761L)
    Array.fill(dim)(rng.nextGaussian().toFloat)
  }

  /** Vector of a single word (no '_' inside). */
  private def wordVector(word: String, dim: Int): Array[Float] = {
    val padded = s"<$word>"
    val grams = (3 to 5).flatMap(n => padded.sliding(n).toSeq) :+ padded
    EmbeddingModel.normalizedSum(grams.view.map(gramVector(_, dim)), dim)
  }

  /** Vector of an arbitrary token; multi-word tokens (joined by '_') are the
    * average of their word vectors. Never OOV — like fastText. */
  def tokenVector(token: String, dim: Int = DefaultDim): Array[Float] = {
    val words = token.split('_').filter(_.nonEmpty)
    EmbeddingModel.normalizedSum(words.view.map(wordVector(_, dim)), dim)
  }

  /** Materialise a model over all tokens of the relations plus composed
    * RID/CID vectors, so the unsupervised SM/ER algorithms can run on the
    * "pre-trained" space unchanged. */
  def forDatasets(relations: Seq[Relation], strategy: Tokenization.Strategy,
                  dim: Int = DefaultDim): EmbeddingModel = {
    val entries = scala.collection.mutable.LinkedHashMap.empty[String, Array[Float]]
    relations.zipWithIndex.foreach { case (rel, i) =>
      val colAcc = rel.columns.map(_ => new Array[Float](dim))
      rel.rids.indices.foreach { r =>
        val rowAcc = new Array[Float](dim)
        var any = false
        rel.columns.indices.foreach { j =>
          Tokenization.tokens(rel.cells(r)(j), strategy).foreach { tok =>
            val tv = entries.getOrElseUpdate(tok, tokenVector(tok, dim))
            var k = 0; while (k < dim) { rowAcc(k) += tv(k); colAcc(j)(k) += tv(k); k += 1 }
            any = true
          }
        }
        if (any) entries(NodeNames.rid(rel.rids(r))) = EmbeddingModel.normalize(rowAcc)
      }
      rel.columns.indices.foreach { j =>
        entries(NodeNames.cid(i + 1, rel.columns(j))) = EmbeddingModel.normalize(colAcc(j))
      }
    }
    EmbeddingModel(entries.toSeq)
  }
}
