package repro.integration

import org.apache.spark.sql.SparkSession
import repro.core.EmbeddingModel

/** The matching engine as it was before the driver-side kernel: a Spark
  * broadcast + per-query heap top-k, a mutual-matching loop that builds
  * candidate lists by probing a similarity map for every left×right pair,
  * and token matching's per-query sort (`EmbeddingModel.nearest`). Kept
  * verbatim (apart from names and the model argument) as the reference the
  * current engine must reproduce. */
object ReferenceMatching {

  def topK(spark: SparkSession,
           queries: Seq[(String, Array[Float])],
           targets: Seq[(String, Array[Float])],
           k: Int): Map[String, Seq[(String, Double)]] = {
    if (queries.isEmpty || targets.isEmpty) return Map.empty
    val tNames = targets.map(_._1).toArray
    val tVecs  = targets.map(_._2).toArray
    val bt = spark.sparkContext.broadcast((tNames, tVecs))
    val parts = math.min(64, math.max(1, queries.size / 16))
    val result = spark.sparkContext
      .parallelize(queries.toIndexedSeq, parts)
      .map { case (qName, qVec) =>
        val (names, vecs) = bt.value
        val heap = new scala.collection.mutable.PriorityQueue[(Double, Int)]()(
          Ordering.by[(Double, Int), Double](-_._1)) // min-heap on score
        var i = 0
        while (i < vecs.length) {
          if (names(i) != qName) {
            val s = EmbeddingModel.dot(qVec, vecs(i))
            if (heap.size < k) heap.enqueue((s, i))
            else if (s > heap.head._1) { heap.dequeue(); heap.enqueue((s, i)) }
          }
          i += 1
        }
        val ranked: Seq[(Double, Int)] = heap.dequeueAll
        qName -> ranked.map { case (s, i) => (names(i), s) }.sortBy(-_._2)
      }
      .collect()
      .toMap
    bt.destroy()
    result
  }

  /** Top-k most similar candidates to `query` by cosine, descending. */
  def nearest(model: EmbeddingModel, query: Array[Float], candidates: Iterable[String], k: Int,
              exclude: Set[String] = Set.empty): Seq[(String, Double)] =
    candidates.iterator
      .filterNot(exclude)
      .flatMap(c => model.vector(c).map(v => c -> model.cosine(query, v)))
      .toSeq.sortBy(-_._2).take(k)

  def nearestToWord(model: EmbeddingModel, w: String, candidates: Iterable[String],
                    k: Int): Seq[(String, Double)] =
    model.vector(w).map(nearest(model, _, candidates, k, exclude = Set(w))).getOrElse(Seq.empty)

  /** Token matching as `TokenMatcher.matchByEmbedding` composed it. */
  def matchByEmbedding(model: EmbeddingModel, dom1: Seq[String], dom2: Seq[String],
                       nTop: Int = 1): Seq[(String, String)] =
    dom1.flatMap { t =>
      nearestToWord(model, t, dom2.filterNot(_ == t), nTop).headOption.map(n => t -> n._1)
    }

  def mutualMatch(
      sims: Map[(String, String), Double],
      left: Seq[String], right: Seq[String],
      maxIterations: Int,
      candidateCap: Int): Seq[(String, String)] = {

    import scala.collection.mutable
    val candL = mutable.LinkedHashMap.empty[String, mutable.ArrayDeque[String]]
    val candR = mutable.LinkedHashMap.empty[String, mutable.ArrayDeque[String]]
    left.foreach { a =>
      val cs = right.flatMap(b => sims.get((a, b)).map(b -> _)).sortBy(-_._2)
        .take(candidateCap).map(_._1)
      candL(a) = mutable.ArrayDeque.from(cs)
    }
    right.foreach { b =>
      val cs = left.flatMap(a => sims.get((a, b)).map(a -> _)).sortBy(-_._2)
        .take(candidateCap).map(_._1)
      candR(b) = mutable.ArrayDeque.from(cs)
    }

    val matched = mutable.ArrayBuffer.empty[(String, String)]
    val doneL = mutable.Set.empty[String]
    val doneR = mutable.Set.empty[String]

    var iter = 0
    var progress = true
    while (iter < maxIterations && progress) {
      progress = false
      for (a <- left if !doneL(a)) {
        val cl = candL(a)
        cl.headOption match {
          case None =>
          case Some(b) if doneR(b) =>
            cl.removeHead(); progress = true
          case Some(b) =>
            val back = candR(b).find(x => !doneL(x))
            if (back.contains(a)) {
              matched += ((a, b)); doneL += a; doneR += b; progress = true
            } else {
              cl.removeHead()
              val i = candR(b).indexOf(a)
              if (i >= 0) candR(b).remove(i)
              progress = true
            }
        }
      }
      iter += 1
    }
    matched.toSeq
  }

  /** Algorithm 6 as `EntityResolver.matchRids` composed it: Spark top-k in
    * both directions, merged into one similarity map, then the map loop. */
  def matchRids(spark: SparkSession, model: EmbeddingModel,
                rids1: Seq[String], rids2: Seq[String],
                nTop: Int, maxIterations: Int = 10): Seq[(String, String)] = {
    val vecs1 = rids1.flatMap(r => model.vector(r).map(r -> _))
    val vecs2 = rids2.flatMap(r => model.vector(r).map(r -> _))
    if (vecs1.isEmpty || vecs2.isEmpty) return Seq.empty
    val top12 = topK(spark, vecs1, vecs2, nTop)
    val top21 = topK(spark, vecs2, vecs1, nTop)
    val sims: Map[(String, String), Double] =
      (top12.toSeq.flatMap { case (a, ns) => ns.map { case (b, s) => (a, b) -> s } } ++
       top21.toSeq.flatMap { case (b, ns) => ns.map { case (a, s) => (a, b) -> s } }).toMap
    mutualMatch(sims, vecs1.map(_._1), vecs2.map(_._1), maxIterations, nTop)
  }

  /** Algorithm 5 as `SchemaMatcher.matchCids` composed it: the full cosine
    * table of the cross pairs, then the map loop with no cap. */
  def matchCids(model: EmbeddingModel, cids1: Seq[String], cids2: Seq[String],
                maxIterations: Int = 2): Seq[(String, String)] = {
    val sims = (for {
      a <- cids1; va <- model.vector(a).toSeq
      b <- cids2; vb <- model.vector(b).toSeq
    } yield (a, b) -> model.cosine(va, vb)).toMap
    mutualMatch(sims, cids1.filter(model.contains), cids2.filter(model.contains),
      maxIterations, Int.MaxValue)
  }
}
