package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** One dataset's cells on the driver: its data column names, the `__rid` of
  * every row and every cell in the §4.1 normal form of
  * [[Tokenization.normalize]] (NULL and blank cells kept as `null`), in row
  * order. It is the only reader of a dataset's cells: graph construction,
  * every cell statistic and every baseline work from it. Rows whose `__rid`
  * is NULL have no RID node; they are left out and counted in `nullRids`,
  * so that [[EmbDI]] can reject them.
  */
final class Relation(val columns: IndexedSeq[String], val rids: Array[Long],
                     val cells: Array[Array[String]], val nullRids: Int) {
  def nRows: Int = rids.length

  def columnIndex(column: String): Int = {
    val j = columns.indexOf(column)
    require(j >= 0, s"no column '$column' (columns: ${columns.mkString(", ")})")
    j
  }

  /** The non-NULL cells of `column`, in row order. */
  def values(column: String): Seq[String] = {
    val j = columnIndex(column)
    cells.iterator.map(_(j)).filter(_ != null).toSeq
  }

  /** Every non-NULL cell, row by row. */
  def allCells: Iterator[String] = cells.iterator.flatMap(_.iterator).filter(_ != null)
}

object Relation {

  /** Read `df` in one Spark job: `__rid` as long and every data column cast
    * to string, in one projection; each cell is normalized here, once. */
  def read(df: DataFrame): Relation = {
    val columns = df.columns.filterNot(_ == "__rid").toIndexedSeq
    val all = df.select(col("__rid").cast("long") +: columns.map(c => col(c).cast("string")): _*)
      .collect()
    val rows = all.filterNot(_.isNullAt(0))
    val cells = rows.map(r => Array.tabulate(columns.size)(j =>
      Tokenization.normalize(r.getString(j + 1)).orNull))
    new Relation(columns, rows.map(_.getLong(0)), cells, all.length - rows.length)
  }
}
