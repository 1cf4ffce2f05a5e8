package repro.baselines

import repro.core.{NodeNames, Rand, Relation, Tokenization}

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
      strategy: Tokenization.Strategy = Tokenization.Flatten,
      seed: Long = 7777L,
  )

  /** Share of the corpus spent on row permutations (§7.1: more helps MR, hurts MA). */
  private[repro] val RowFraction = 0.5
  /** Tokens drawn per attribute sentence, after its CID. */
  private[repro] val AttrSentenceLen = 10

  /** Basic's sentences, built on the driver from the relations (global
    * `__rid`s): `permsPerRow` shuffles of each non-empty row's tokens, opened
    * by its RID (the rows of D1, then of D2), then `perAttr` samples of each
    * non-empty column domain, opened by its CID. Each kind is taken in turns
    * over its rows or columns. */
  def corpus(relations: Seq[Relation], cfg: Config): Array[Array[String]] = {
    val rows = relations.flatMap { rel =>
      rel.rids.indices.map(r =>
        (rel.rids(r), rel.cells(r).toSeq.flatMap(Tokenization.tokens(_, cfg.strategy))))
    }.filter(_._2.nonEmpty)
    val nRows = math.max(1L, rows.size.toLong)
    val avgRowLen = math.max(2.0, rows.map(_._2.size + 1L).sum / nRows.toDouble)

    val rowBudgetTokens = (cfg.corpusTokens * RowFraction).toLong
    val permsPerRow = math.max(1L, (rowBudgetTokens / avgRowLen / nRows).toLong).toInt
    // Both kinds of sentence come in turns (every row's first shuffle, then
    // every row's second, …), not one block per row or column: the trainer's
    // parallel slices would otherwise often train one RID's or one CID's rows
    // in the same round, each from the round-start values, and their summed
    // updates overshoot.
    val rowSentences = (0 until permsPerRow).flatMap { p =>
      rows.map { case (rid, toks) =>
        val rng = Rand.of(cfg.seed, rid, p.toLong)
        (NodeNames.rid(rid) +: rng.shuffle(toks)).toArray
      }
    }

    // Attribute domains: distinct tokens of each column, in row order.
    val domains = relations.zipWithIndex.flatMap { case (rel, i) =>
      Tokenization.columnTokens(rel, cfg.strategy)
        .map { case (c, dom) => NodeNames.cid(i + 1, c) -> dom }
    }.filter(_._2.nonEmpty)
    val attrBudgetTokens = cfg.corpusTokens - rowBudgetTokens
    val perAttr = math.max(1L,
      attrBudgetTokens / (AttrSentenceLen + 1) / math.max(1, domains.size)).toInt
    val attrSentences = (0 until perAttr).flatMap { s =>
      domains.map { case (cid, dom) =>
        val rng = Rand.of(cfg.seed, cid.hashCode.toLong, s.toLong)
        cid +: Array.fill(AttrSentenceLen)(dom(rng.nextInt(dom.size)))
      }
    }
    (rowSentences ++ attrSentences).toArray
  }
}
