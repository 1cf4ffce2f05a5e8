package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

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

/** Tripartite graph construction (Algorithm 1 / §4.1) as DataFrame
  * transformations.
  *
  * Input datasets carry a `__rid` long column with *globally unique* row ids
  * (the scenario generator assigns `[0, n1)` to dataset 1 and `[n1, n1+n2)`
  * to dataset 2). Every cell contributes, per token produced by the
  * tokenization strategy, one token↔RID edge and one token↔CID edge. NULL
  * cells contribute nothing (the §5.2 default "Skip" policy; FD-based
  * skolemization is applied upstream by [[NullHandling]]).
  */
object TripartiteGraph {

  /** Undirected edge list: columns `src`, `dst` (node names), deduplicated.
    * Only the (token → rid) and (token → cid) direction is materialised;
    * [[CompactGraph]] symmetrizes. */
  def edges(spark: SparkSession, datasets: Seq[DataFrame],
            strategy: Tokenization.Strategy, sigFigs: Int = 4): DataFrame = {
    import spark.implicits._
    val perDataset = datasets.zipWithIndex.map { case (df, i) =>
      val dataCols = df.columns.filterNot(_ == "__rid").toSeq
      val cids = dataCols.map(NodeNames.cid(i + 1, _))
      // One pass over the rows: each token of each cell yields both its edges.
      df.select($"__rid".cast("long") +: dataCols.map(c => col(c).cast("string")): _*)
        .flatMap { row =>
          val rid = NodeNames.rid(row.getLong(0))
          cids.indices.flatMap { j =>
            Tokenization.tokens(row.getString(j + 1), strategy, sigFigs)
              .flatMap(tok => Seq((tok, rid), (tok, cids(j))))
          }
        }
        .toDF("src", "dst")
    }
    perDataset.reduce(_ union _).distinct()
  }
}
