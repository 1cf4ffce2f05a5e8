package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Node-name conventions of the tripartite graph. */
object NodeNames {
  val RidPrefix = "idx__"
  val CidPrefix = "cid__"

  def rid(r: Long): String = s"$RidPrefix$r"
  /** CIDs are qualified per dataset: the two relations have *different*
    * attributes (that is what schema matching must discover), so `title` in
    * dataset 1 and `name` in dataset 2 get distinct CID nodes. */
  def cid(dataset: Int, column: String): String = s"$CidPrefix${dataset}__$column"

  def isRid(n: String): Boolean = n.startsWith(RidPrefix)
  def isCid(n: String): Boolean = n.startsWith(CidPrefix)
  def isToken(n: String): Boolean = !isRid(n) && !isCid(n)

  def ridValue(n: String): Long = n.stripPrefix(RidPrefix).toLong
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
  private def pairs(relations: Seq[Relation], strategy: Tokenization.Strategy,
                    sigFigs: Int): Seq[(String, String)] = {
    val out = Vector.newBuilder[(String, String)]
    relations.zipWithIndex.foreach { case (rel, i) =>
      val cids = rel.columns.map(NodeNames.cid(i + 1, _))
      for (r <- rel.rids.indices; rid = NodeNames.rid(rel.rids(r)); j <- cids.indices;
           tok <- Tokenization.tokens(rel.cells(r)(j), strategy, sigFigs)) {
        out += ((tok, rid)); out += ((tok, cids(j)))
      }
    }
    out.result()
  }

  /** The CSR graph of `relations`. */
  def build(relations: Seq[Relation], strategy: Tokenization.Strategy,
            sigFigs: Int): CompactGraph =
    CompactGraph.build(pairs(relations, strategy, sigFigs))

  /** Deduplicated edge list of `datasets`, columns `src` (token) and `dst`
    * (RID or CID). */
  def edges(spark: SparkSession, datasets: Seq[DataFrame],
            strategy: Tokenization.Strategy, sigFigs: Int = 4): DataFrame = {
    import spark.implicits._
    pairs(datasets.map(Relation.read), strategy, sigFigs).distinct.toDF("src", "dst")
  }
}
