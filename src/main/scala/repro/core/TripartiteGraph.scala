package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Node-name conventions of the tripartite graph: the one place that writes
  * and reads the RID, CID and token name formats. */
object NodeNames {
  private val RidPrefix = "idx__"
  private val CidPrefix = "cid__"
  /** Prepended to a whole-cell token that starts with a RID or CID prefix,
    * or with this marker itself, so that node kinds read from name prefixes
    * stay right: the cell `idx__0` is the token `tok__idx__0`, not RID 0.
    * The rule is injective. Words hold no `_`, so they never need it. */
  private val EscapeMarker = "tok__"

  def rid(r: Long): String = s"$RidPrefix$r"
  /** CIDs are qualified per dataset: the two relations have *different*
    * attributes (that is what schema matching must discover), so `title` in
    * dataset 1 and `name` in dataset 2 get distinct CID nodes. */
  def cid(dataset: Int, column: String): String = s"$CidPrefix${dataset}__$column"
  /** The token name of a normalized cell value or word. */
  def token(value: String): String =
    if (value.startsWith(RidPrefix) || value.startsWith(CidPrefix) ||
        value.startsWith(EscapeMarker)) EscapeMarker + value else value

  def isRid(n: String): Boolean = n.startsWith(RidPrefix)
  def isCid(n: String): Boolean = n.startsWith(CidPrefix)
  def isToken(n: String): Boolean = !isRid(n) && !isCid(n)

  /** A name's kind as [[CompactGraph.types]] stores it: 0 token, 1 RID, 2 CID. */
  def kind(n: String): Byte = if (isRid(n)) 1 else if (isCid(n)) 2 else 0

  def ridValue(n: String): Long = n.stripPrefix(RidPrefix).toLong

  /** The column of a CID name: `cidColumn(cid(d, c)) == c`. */
  def cidColumn(n: String): String = {
    require(isCid(n), s"'$n' is not a CID")
    val rest = n.substring(CidPrefix.length)
    rest.substring(rest.indexOf("__") + 2)
  }
}

/** Tripartite graph construction (Algorithm 1 / §4.1) in one pass over
  * each relation, on the driver.
  *
  * Input datasets carry a `__rid` long column with *globally unique* row ids
  * (the scenario generator assigns `[0, n1)` to dataset 1 and `[n1, n1+n2)`
  * to dataset 2). Every cell contributes, per token produced by the
  * tokenization strategy, one token↔RID edge and one token↔CID edge. NULL
  * cells contribute nothing (the §5.2 default "Skip" policy; FD-based
  * skolemization is applied upstream by [[NullHandling]]).
  */
object TripartiteGraph {

  /** The token→RID and token→CID pair of every token of every cell, repeats
    * included. Only that direction is emitted; [[CompactGraph.build]]
    * symmetrizes and deduplicates. */
  private def pairs(relations: Seq[Relation],
                    strategy: Tokenization.Strategy): Seq[(String, String)] = {
    val out = Vector.newBuilder[(String, String)]
    relations.zipWithIndex.foreach { case (rel, i) =>
      val cids = rel.columns.map(NodeNames.cid(i + 1, _))
      for (r <- rel.rids.indices; rid = NodeNames.rid(rel.rids(r)); j <- cids.indices;
           tok <- Tokenization.tokens(rel.cells(r)(j), strategy)) {
        out += ((tok, rid)); out += ((tok, cids(j)))
      }
    }
    out.result()
  }

  /** The CSR graph of `relations`. */
  def build(relations: Seq[Relation], strategy: Tokenization.Strategy): CompactGraph =
    CompactGraph.build(pairs(relations, strategy))

  /** Deduplicated edge list of `datasets`, columns `src` (token) and `dst`
    * (RID or CID). `sigFigs` must be [[Tokenization.SigFigs]]. */
  def edges(spark: SparkSession, datasets: Seq[DataFrame], strategy: Tokenization.Strategy,
            sigFigs: Int = Tokenization.SigFigs): DataFrame = {
    require(sigFigs == Tokenization.SigFigs,
      s"cells are rounded to ${Tokenization.SigFigs} significant figures, not $sigFigs")
    import spark.implicits._
    pairs(datasets.map(Relation.read), strategy).distinct.toDF("src", "dst")
  }
}
