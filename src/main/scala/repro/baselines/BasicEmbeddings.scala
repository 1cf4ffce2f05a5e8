package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{EmbeddingModel, EmbeddingTrainer, NodeNames, Tokenization}

import scala.util.Random

/** The `Basic` baseline of §7: no graph — sentences are (a) permutations of
  * each row's tokens prefixed by the row's RID and (b) samples of each
  * attribute's token domain prefixed by the attribute's CID. Structure-aware
  * (it can learn RID/CID vectors) but blind to cross-granularity
  * relationships, which is why it fails the MC tests and the matching tasks.
  *
  * The corpus is sized to the same token count as EmbDI's corpus for the
  * scenario ("we fixed the size of the sentence corpus for Basic to contain
  * the same number of tokens in EmbDI's corpus").
  */
object BasicEmbeddings {

  final case class Config(
      corpusTokens: Long = 1_000_000L,
      /** Share of the corpus spent on row permutations vs attribute samples;
        * §7.1 notes raising it helps MR and hurts MA. */
      rowFraction: Double = 0.5,
      attrSentenceLen: Int = 10,
      strategy: Tokenization.Strategy = Tokenization.Flatten,
      w2v: EmbeddingTrainer.W2VConfig = EmbeddingTrainer.W2VConfig(),
      seed: Long = 7777L,
  )

  /** Train Basic embeddings over the datasets (each with global `__rid`). */
  def train(spark: SparkSession, datasets: Seq[DataFrame], cfg: Config): EmbeddingModel = {
    import spark.implicits._

    // (rid, row tokens) pairs, distributed.
    val rowTokens = datasets.zipWithIndex.map { case (df, i) =>
      val dsIdx = i + 1
      val dataCols = df.columns.filterNot(_ == "__rid").toSeq
      df.rdd.map { r =>
        val rid = r.getAs[Long]("__rid")
        val toks = dataCols.flatMap { c =>
          Option(r.getAs[Any](c)).toSeq.flatMap(v => Tokenization.tokens(v.toString, cfg.strategy))
        }
        (rid, dsIdx, dataCols.map(c => c -> Option(r.getAs[Any](c)).map(_.toString)), toks)
      }
    }.reduce(_ union _)

    val rows = rowTokens.filter(_._4.nonEmpty).cache()
    val nRows = rows.count()
    val avgRowLen = math.max(2.0, rows.map(_._4.size + 1).sum() / math.max(1L, nRows).toDouble)

    val rowBudgetTokens = (cfg.corpusTokens * cfg.rowFraction).toLong
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
          .flatMap(v => Tokenization.tokens(v.toString, cfg.strategy))
          .distinct.toIndexedSeq
        NodeNames.cid(dsIdx, c) -> dom
      }
    }.filter(_._2.nonEmpty)

    val attrBudgetTokens = cfg.corpusTokens - rowBudgetTokens
    val perAttr = math.max(1L,
      attrBudgetTokens / (cfg.attrSentenceLen + 1) / math.max(1, domains.size)).toInt
    val attrSentences = spark.sparkContext.parallelize(domains.toIndexedSeq)
      .flatMap { case (cid, dom) =>
        (0 until perAttr).iterator.map { s =>
          val rng = repro.core.Rand.of(cfg.seed, cid.hashCode.toLong, s.toLong)
          (cid +: Array.fill(cfg.attrSentenceLen)(dom(rng.nextInt(dom.size)))).toArray
        }
      }

    val corpus = rowSentences.union(attrSentences).toDF("sentence")
    val model = EmbeddingTrainer.train(corpus, cfg.w2v)
    rows.unpersist()
    model
  }
}
