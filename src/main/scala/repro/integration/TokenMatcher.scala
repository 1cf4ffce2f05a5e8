package repro.integration

import org.apache.spark.sql.DataFrame
import repro.core.{EmbeddingModel, NearestNeighbors, Relation, Tokenization}

/** Token Matching (§6/§7.2): given two *aligned* attributes, find pairs of
  * tokens that are conceptual synonyms ("Denmark" ↔ "DK"). For a token from
  * the first domain, rank all tokens by embedding distance and announce the
  * first ranked token that belongs to the second domain.
  *
  * Baseline: character-trigram Jaccard similarity (the classic string-
  * matching signal the paper compares against).
  */
object TokenMatcher {

  /** Distinct whole-cell token names of one column, sorted: the graph's
    * names, so an escaped cell such as `idx__5` is `tok__idx__5`. */
  def domain(rel: Relation, column: String): Seq[String] =
    rel.values(column).flatMap(Tokenization.tokens(_, Tokenization.Simple)).distinct.sorted

  /** [[domain]] of a dataset, read once. */
  def domain(df: DataFrame, column: String): Seq[String] = domain(Relation.read(df), column)

  /** Embedding-based matching: each dom1 token with a vector → its nearest
    * dom2 token other than itself (ties: the earlier in dom2). */
  def matchByEmbedding(model: EmbeddingModel, dom1: Seq[String],
                       dom2: Seq[String]): Seq[(String, String)] = {
    val queries = dom1.filter(model.contains).toIndexedSeq
    val targets = dom2.distinct.filter(model.contains).toIndexedSeq
    queries.zip(NearestNeighbors.rankNames(model, queries, targets, 1)).flatMap {
      case (t, best) => best.headOption.map(b => t -> targets(b))
    }
  }

  /** Unpadded character trigrams; strings shorter than 3 are one gram —
    * padding would fabricate overlap between e.g. "dk" and "denmark". */
  private def trigrams(s: String): Set[String] =
    if (s.length < 3) Set(s) else s.sliding(3).toSet

  /** Jaccard-of-trigrams baseline. */
  def matchByJaccard(dom1: Seq[String], dom2: Seq[String]): Seq[(String, String)] =
    dom1.flatMap { t =>
      val g = trigrams(t)
      val scored = dom2.filterNot(_ == t).map { c =>
        val h = trigrams(c)
        c -> (if (g.isEmpty && h.isEmpty) 0.0
              else g.intersect(h).size.toDouble / g.union(h).size)
      }
      scored.sortBy(-_._2).headOption.filter(_._2 > 0).map(c => t -> c._1)
    }

  def score(predicted: Seq[(String, String)], gt: Seq[(String, String)]): PRF =
    Metrics.prf(predicted.toSet, gt.toSet)
}
