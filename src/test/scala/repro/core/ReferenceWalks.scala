package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{BasicEmbeddings, Harp}

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The walk-corpus drivers as they were before the single driver
  * `RandomWalker.walkCorpus`: EmbDI's `RandomWalker.corpus` and HARP's
  * per-level loop over its string-named coarsening, each with its own start
  * filter, budget rule, broadcast, seeding and `toDF`; and Basic's corpus as
  * it was built on RDDs before `BasicEmbeddings.corpus`. Kept as the
  * reference that [[WalkEngineSpec]] checks the new drivers against. The
  * walk-stepping and coarsening code is copied too, so a change there shows
  * as well. The
  * removed config fields (`numPartitions`, `firstStepRid`) are arguments;
  * the removed `firstStepOrCid` is derived from the start strategy, as
  * `RandomWalker` derives it, and HARP's level count and Basic's corpus
  * split are the drivers' constants.
  */
object ReferenceWalks {

  // ------------------------------------------------------------------ EmbDI

  private def walkFrom(graph: CompactGraph, start: Int, cfg: RandomWalker.WalkConfig,
                       firstStepRid: Boolean, rng: Random): Array[Int] = {
    val out = new ArrayBuffer[Int](cfg.walkLength)
    if (firstStepRid && graph.isToken(start))
      out += graph.randomNeighborOfKind(start, rng,
        orCid = cfg.startStrategy.isInstanceOf[RandomWalker.OverlapTokens])
    out += start
    var cur = start
    while (out.length < cfg.walkLength) {
      cur = graph.randomNeighbor(cur, rng)
      out += cur
    }
    out.toArray
  }

  private def emit(graph: CompactGraph, walk: Array[Int], cfg: RandomWalker.WalkConfig,
                   rng: Random): Array[String] =
    walk.map { id =>
      val name = graph.names(id)
      cfg.replacements.get(name) match {
        case Some((repl, p)) if rng.nextDouble() < p => repl
        case _ => name
      }
    }

  def embdi(spark: SparkSession, graph: CompactGraph, cfg: RandomWalker.WalkConfig,
            numPartitions: Int = 16): DataFrame = {
    import spark.implicits._
    val starts = RandomWalker.startNodes(graph, cfg.startStrategy)
    require(starts.nonEmpty, "no start nodes — empty graph or empty overlap set")
    val totalWalks = math.max(starts.length.toLong, cfg.corpusTokens / cfg.walkLength)
    val perNode = math.max(1L, totalWalks / starts.length).toInt
    val bg = spark.sparkContext.broadcast(graph)
    val seeds = spark.sparkContext.parallelize(starts.toIndexedSeq, numPartitions)
    seeds
      .flatMap { startId =>
        val g = bg.value
        (0 until perNode).iterator.map { w =>
          val rng = Rand.of(cfg.seed, startId.toLong, w.toLong)
          emit(g, walkFrom(g, startId, cfg, firstStepRid = true, rng), cfg, rng)
        }
      }
      .toDF("sentence")
  }

  // ------------------------------------------------------------------- HARP

  /** HARP's coarsening step as it was before coarse nodes were numbered by
    * their representatives' fine ids: each coarse node is named
    * `h<level>__<representative's name>` and the coarse graph is built from
    * those names. */
  def coarsen(g: CompactGraph, level: Int, seed: Long): (CompactGraph, Array[Int]) = {
    val rng = new Random(seed)
    val match_ = Array.fill(g.numNodes)(-1)
    val order = rng.shuffle((0 until g.numNodes).toVector)
    order.foreach { u =>
      if (match_(u) < 0 && g.degree(u) > 0) {
        val nbrs = g.neighborsOf(u).filter(match_(_) < 0)
        if (nbrs.nonEmpty) {
          val v = nbrs(rng.nextInt(nbrs.length))
          match_(u) = u; match_(v) = u
        }
      }
    }
    (0 until g.numNodes).foreach(u => if (match_(u) < 0) match_(u) = u)
    val repName = (u: Int) => s"h${level}__${g.names(match_(u))}"
    val coarseEdges = (0 until g.numNodes).flatMap { u =>
      g.neighborsOf(u).map(v => (repName(u), repName(v)))
    }.filter { case (a, b) => a != b }
    val coarse = CompactGraph.build(coarseEdges)
    val mapping = Array.tabulate(g.numNodes)(u => coarse.index(repName(u)))
    (coarse, mapping)
  }

  /** HARP's combined corpus over all levels (before persisting/training). */
  def harp(spark: SparkSession, g0: CompactGraph, cfg: Harp.Config,
           numPartitions: Int = 16): DataFrame = {
    import spark.implicits._
    var graphs = List((g0, Array.tabulate(g0.numNodes)(identity)))
    var fineToLevel = Array.tabulate(g0.numNodes)(identity)
    var cur = g0
    (1 to Harp.Levels).foreach { lvl =>
      val (coarse, m) = coarsen(cur, lvl, cfg.seed + lvl)
      fineToLevel = Array.tabulate(g0.numNodes)(u => m(fineToLevel(u)))
      graphs = graphs :+ ((coarse, fineToLevel.clone()))
      cur = coarse
    }

    val corpora: Seq[DataFrame] = graphs.zipWithIndex.map { case ((g, fineMap), lvlIdx) =>
      val members: Array[Array[String]] = {
        val acc = Array.fill(g.numNodes)(List.empty[String])
        (0 until g0.numNodes).foreach { u => acc(fineMap(u)) ::= g0.names(u) }
        acc.map(_.toArray)
      }
      val budget = cfg.corpusTokens / graphs.size
      val bg = spark.sparkContext.broadcast((g, members))
      val starts = (0 until g.numNodes).filter(g.degree(_) > 0).toIndexedSeq
      val totalWalks = math.max(starts.size.toLong, budget / cfg.walkLength)
      val perNode = math.max(1L, totalWalks / starts.size).toInt
      val walkCfg = RandomWalker.WalkConfig(walkLength = cfg.walkLength)
      spark.sparkContext.parallelize(starts, numPartitions).flatMap { s =>
        val (graph, mem) = bg.value
        (0 until perNode).iterator.map { w =>
          val rng = Rand.of(cfg.seed, lvlIdx.toLong * 1_000_003L + s, w.toLong)
          val walk = walkFrom(graph, s, walkCfg, firstStepRid = false, rng)
          walk.map { id =>
            val m = mem(id)
            if (m.isEmpty) graph.names(id) else m(rng.nextInt(m.length))
          }
        }
      }.toDF("sentence")
    }
    corpora.reduce(_ union _)
  }

  // ------------------------------------------------------------------ Basic

  /** Basic's sentences in collect order. */
  def basic(spark: SparkSession, datasets: Seq[DataFrame],
            cfg: BasicEmbeddings.Config): Seq[Seq[String]] = {
    import spark.implicits._

    // (rid, row tokens) pairs, distributed.
    val rowTokens = datasets.zipWithIndex.map { case (df, i) =>
      val dsIdx = i + 1
      val dataCols = df.columns.filterNot(_ == "__rid").toSeq
      df.rdd.map { r =>
        val rid = r.getAs[Long]("__rid")
        val toks = dataCols.flatMap { c =>
          Option(r.getAs[Any](c)).flatMap(v => Tokenization.normalize(v.toString)).toSeq
            .flatMap(Tokenization.tokens(_, cfg.strategy))
        }
        (rid, dsIdx, dataCols.map(c => c -> Option(r.getAs[Any](c)).map(_.toString)), toks)
      }
    }.reduce(_ union _)

    val rows = rowTokens.filter(_._4.nonEmpty).cache()
    val nRows = rows.count()
    val avgRowLen = math.max(2.0, rows.map(_._4.size + 1).sum() / math.max(1L, nRows).toDouble)

    val rowBudgetTokens = (cfg.corpusTokens * BasicEmbeddings.RowFraction).toLong
    val permsPerRow = math.max(1L, (rowBudgetTokens / avgRowLen / math.max(1L, nRows)).toLong).toInt

    val rowSentences = rows.flatMap { case (rid, _, _, toks) =>
      (0 until permsPerRow).iterator.map { p =>
        val rng = repro.core.Rand.of(cfg.seed, rid, p.toLong)
        (NodeNames.rid(rid) +: rng.shuffle(toks)).toArray
      }
    }

    // Attribute-domain samples: collect the (small) per-column domains.
    val domains: Seq[(String, IndexedSeq[String])] = datasets.zipWithIndex.flatMap { case (df, i) =>
      val dsIdx = i + 1
      df.columns.filterNot(_ == "__rid").toSeq.map { c =>
        val dom = df.select(c).collect()
          .flatMap(r => Option(r.get(0)))
          .flatMap(v => Tokenization.normalize(v.toString))
          .flatMap(Tokenization.tokens(_, cfg.strategy))
          .distinct.toIndexedSeq
        NodeNames.cid(dsIdx, c) -> dom
      }
    }.filter(_._2.nonEmpty)

    val attrBudgetTokens = cfg.corpusTokens - rowBudgetTokens
    val perAttr = math.max(1L,
      attrBudgetTokens / (BasicEmbeddings.AttrSentenceLen + 1) / math.max(1, domains.size)).toInt
    val attrSentences = spark.sparkContext.parallelize(domains.toIndexedSeq)
      .flatMap { case (cid, dom) =>
        (0 until perAttr).iterator.map { s =>
          val rng = repro.core.Rand.of(cfg.seed, cid.hashCode.toLong, s.toLong)
          (cid +: Array.fill(BasicEmbeddings.AttrSentenceLen)(dom(rng.nextInt(dom.size)))).toArray
        }
      }

    val corpus = rowSentences.union(attrSentences).toDF("sentence")
    val out = corpus.collect().map(_.getSeq[String](0).toSeq).toSeq
    rows.unpersist()
    out
  }
}
