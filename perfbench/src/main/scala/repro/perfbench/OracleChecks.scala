package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.Oracle

/** Set-up cross-checks of the program against DuckDB. */
object OracleChecks {

  /** The graph's RID and CID node counts (`nodesRid`, `nodesCid`, from a
    * run's outputs) must equal the number of rows, and of (dataset, column)
    * pairs, that hold at least one non-blank cell — computed by DuckDB from
    * the raw tables. */
  def nodeCounts(spark: SparkSession, data: Seq[DataFrame], nodesRid: Long, nodesCid: Long): Unit = {
    import spark.implicits._
    // Columns renamed c0, c1, … so any scenario column name is valid SQL.
    val tables = data.zipWithIndex.map { case (df, i) =>
      val cols = df.columns.filterNot(_ == "__rid").toSeq
      val renamed = df.select(col("__rid").cast("string").as("rid") +:
        cols.zipWithIndex.map { case (c, j) => col(c).cast("string").as(s"c$j") }: _*)
      (s"t${i + 1}", cols.indices.map(j => s"(c$j IS NOT NULL AND trim(c$j) <> '')"), renamed)
    }
    val rids = tables.map { case (t, nonBlank, _) =>
      s"SELECT rid FROM $t WHERE ${nonBlank.mkString(" OR ")}" }.mkString(" UNION ALL ")
    val cids = tables.map { case (t, nonBlank, _) =>
      s"(SELECT ${nonBlank.map(e => s"CAST(bool_or($e) AS INTEGER)").mkString(" + ")} FROM $t)" }
    Oracle.assertEquivalent(Seq(("rid", nodesRid), ("cid", nodesCid)).toDF("ntype", "n"),
      s"""SELECT 'rid' AS ntype, CAST(count(DISTINCT rid) AS BIGINT) AS n FROM ($rids)
         |UNION ALL
         |SELECT 'cid' AS ntype, CAST(${cids.mkString(" + ")} AS BIGINT) AS n""".stripMargin,
      tables.map { case (t, _, df) => t -> df }: _*)
  }
}
