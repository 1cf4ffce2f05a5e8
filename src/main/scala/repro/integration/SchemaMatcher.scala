package repro.integration

import repro.core.{EmbeddingModel, NearestNeighbors, NodeNames, Relation, Tokenization}

import scala.collection.mutable

/** Schema Matching (§6, Algorithm 5): mutual-nearest-neighbour matching of
  * CID embeddings with candidate elimination, terminated after two sweeps
  * "to prevent false positives in the column alignment".
  */
object SchemaMatcher {

  /** Run Algorithm 5 over two CID vocabularies inside `model`: every CID
    * ranks all CIDs of the other side. Returns matched (c1, c2) pairs. */
  def matchCids(model: EmbeddingModel, cids1: Seq[String], cids2: Seq[String],
                maxIterations: Int = 2): Seq[(String, String)] =
    matchVectors(model, cids1, cids2, Int.MaxValue, maxIterations)

  /** [[mutualMatch]] over the top-`k` lists of both directions
    * ([[NearestNeighbors.rankNames]]) of the names that have a vector in
    * `model`; a name on both sides never ranks itself. */
  private[repro] def matchVectors(model: EmbeddingModel, names1: Seq[String], names2: Seq[String],
                                  k: Int, maxIterations: Int): Seq[(String, String)] = {
    val left = names1.filter(model.contains).toIndexedSeq
    val right = names2.filter(model.contains).toIndexedSeq
    requireDistinct(left, "left"); requireDistinct(right, "right")
    mutualMatch(NearestNeighbors.rankNames(model, left, right, k),
      NearestNeighbors.rankNames(model, right, left, k), maxIterations)
      .map { case (a, b) => (left(a), right(b)) }
  }

  private def requireDistinct(names: Seq[String], side: String): Unit =
    require(names.distinct.size == names.size, s"$side names must be distinct; repeated: " +
      names.diff(names.distinct).distinct.take(5).mkString(", "))

  /** The shared mutual-matching engine of Algorithms 5 and 6, on ranked int
    * lists: `l2r(a)` holds left element a's candidate right ids, best first
    * and already capped (Algorithm 6's `n_top`); `r2l(b)` likewise. Per
    * sweep, every unmatched left element proposes to its current best
    * candidate; if the candidate's own current best unmatched candidate is
    * the proposer, the pair is matched and removed, otherwise the two drop
    * each other from their lists (Algorithm 5 lines 13–14). Sweeping stops
    * after `maxIterations` or when no candidates remain. */
  private[repro] def mutualMatch(l2r: Array[Array[Int]], r2l: Array[Array[Int]],
                                 maxIterations: Int): Seq[(Int, Int)] = {
    val headL = new Array[Int](l2r.length) // left lists only lose their head
    val candR = r2l.map(_.clone)            // -1 marks a rejected proposer
    val (doneL, doneR) = (new Array[Boolean](l2r.length), new Array[Boolean](r2l.length))
    val matched = mutable.ArrayBuffer.empty[(Int, Int)]
    var iter = 0; var progress = true
    while (iter < maxIterations && progress) {
      progress = false
      for (a <- l2r.indices if !doneL(a) && headL(a) < l2r(a).length) {
        val b = l2r(a)(headL(a))
        progress = true
        if (doneR(b)) headL(a) += 1
        else if (candR(b).find(x => x >= 0 && !doneL(x)).contains(a)) {
          matched += ((a, b)); doneL(a) = true; doneR(b) = true
        } else { // mutual rejection
          headL(a) += 1
          val i = candR(b).indexOf(a)
          if (i >= 0) candR(b)(i) = -1
        }
      }
      iter += 1
    }
    matched.toSeq
  }

  /** [[mutualMatch]] over a similarity table: each element's candidates are
    * its table entries with the other side, by similarity descending, ties
    * by position in `left`/`right`, capped at `candidateCap`. */
  private[repro] def mutualMatch(sims: Map[(String, String), Double], left: Seq[String],
                                 right: Seq[String], maxIterations: Int,
                                 candidateCap: Int): Seq[(String, String)] = {
    requireDistinct(left, "left"); requireDistinct(right, "right")
    val (ls, rs) = (left.toIndexedSeq, right.toIndexedSeq)
    val (li, ri) = (ls.zipWithIndex.toMap, rs.zipWithIndex.toMap)
    val candL = Array.fill(ls.size)(mutable.ArrayBuffer.empty[(Double, Int)])
    val candR = Array.fill(rs.size)(mutable.ArrayBuffer.empty[(Double, Int)])
    for (((a, b), s) <- sims; i <- li.get(a); j <- ri.get(b)) {
      candL(i) += ((-s, j)); candR(j) += ((-s, i))
    }
    val order = Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Int)
    def ranked(c: mutable.ArrayBuffer[(Double, Int)]): Array[Int] =
      c.sorted(order).iterator.take(candidateCap).map(_._2).toArray
    mutualMatch(candL.map(ranked), candR.map(ranked), maxIterations)
      .map { case (a, b) => (ls(a), rs(b)) }
  }

  /** The `Base` schema matcher of Table 3: columns as bags of words, matched
    * by Jaccard overlap of their normalized token sets, then the same
    * mutual-matching loop. No embeddings involved. */
  def matchBase(r1: Relation, r2: Relation, maxIterations: Int = 2): Seq[(String, String)] = {
    def tokenSets(rel: Relation): Map[String, Set[String]] =
      Tokenization.columnTokens(rel, Tokenization.Flatten)
        .map { case (c, toks) => c -> toks.toSet }.toMap
    val t1 = tokenSets(r1); val t2 = tokenSets(r2)
    val sims = (for {
      (c1, s1) <- t1.toSeq; (c2, s2) <- t2.toSeq
      j = if (s1.isEmpty && s2.isEmpty) 0.0
          else s1.intersect(s2).size.toDouble / s1.union(s2).size
    } yield (c1, c2) -> j).toMap
    mutualMatch(sims, t1.keys.toSeq.sorted, t2.keys.toSeq.sorted, maxIterations, Int.MaxValue)
  }

  /** Convert CID-node matches back to plain column names. */
  def toColumnPairs(cidMatches: Seq[(String, String)]): Seq[(String, String)] =
    cidMatches.map { case (a, b) => (NodeNames.cidColumn(a), NodeNames.cidColumn(b)) }
}
