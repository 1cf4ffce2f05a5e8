package repro.jobs

import repro.core.{NearestNeighbors, NodeNames}
import repro.eval.Bench

/** Diagnostic: separation between ground-truth duplicate pairs and random
  * cross-dataset pairs in a model's RID space, plus the rank of the true
  * match among the query's neighbours.
  */
object GeomProbeJob {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("geomprobe")
    val scenarios = if (args.nonEmpty) args.toSeq else Seq("IM", "BB")
    val useEmbdi = sys.env.get("GEOM_MODEL").contains("embdi")
    scenarios.foreach { s =>
      val b = Bench.bundle(spark, s)
      val m = if (useEmbdi) b.embdiO.model else b.pretrained
      val gt = b.groundTruth.toSeq.sortBy(identity)
      val rng = new scala.util.Random(1)
      def cos(a: Long, c: Long): Option[Double] =
        m.cosine(NodeNames.rid(a), NodeNames.rid(c))
      val gtCos = gt.flatMap { case (a, c) => cos(a, c) }
      val (r1, r2) = (b.ridRange1, b.ridRange2)
      val randCos = (0 until 2000).flatMap { _ =>
        cos(r1._1 + rng.nextLong(r1._2 - r1._1), r2._1 + rng.nextLong(r2._2 - r2._1))
      }
      // for 100 GT pairs: how often is the true match the query's 1-NN?
      val rids2 = (r2._1 until r2._2).map(NodeNames.rid).filter(m.contains)
      val queries = gt.take(100).filter(p => m.contains(NodeNames.rid(p._1))).toIndexedSeq
      val best = NearestNeighbors.rankNames(m, queries.map(p => NodeNames.rid(p._1)), rids2, 1)
      val hits = queries.indices.count(q =>
        best(q).headOption.exists(b => rids2(b) == NodeNames.rid(queries(q)._2)))
      println(f"GEOM $s gtCos=${gtCos.sum / gtCos.size}%.3f " +
        f"randCos=${randCos.sum / randCos.size}%.3f top1hit=${hits}%d/100")
    }
    spark.stop()
  }
}
