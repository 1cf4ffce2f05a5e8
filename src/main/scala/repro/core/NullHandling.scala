package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Missing-data strategies of §5.2.
  *
  * The graph-construction default is **Skip** (NULL cells simply produce no
  * token node — implemented in [[TripartiteGraph]] since the tokenizer emits
  * nothing for null). This module adds the two non-default policies:
  *
  *  - [[skolemizeUnique]]: every NULL becomes a fresh placeholder node
  *    (`null<rid>c<column position>`). The paper notes this is harmless but adds no
  *    information; the FD ablation (Figure 3 "FD" series) builds on it — a
  *    NULL treated as a *new distinct value* pushes the RID's embedding away
  *    from superficially-similar non-duplicates, raising precision.
  *  - [[enforceFd]]: functional-dependency repair `lhs → rhs` via
  *    Skolemization: within each group of rows agreeing on `lhs`, all `rhs`
  *    values (nulls and conflicting constants alike) are replaced by one
  *    shared placeholder derived from the lhs values, merging `c` and `c'`
  *    occurrences exactly as in the §5.2 worked example.
  *
  * Both placeholders hold no `_` or whitespace and start with letters, so
  * each stays one token under every [[Tokenization]] strategy and is never
  * read as a number.
  */
object NullHandling {

  /** Replace every NULL in `cols` by a unique placeholder token. */
  def skolemizeUnique(df: DataFrame, cols: Seq[String]): DataFrame =
    cols.foldLeft(df) { (acc, c) =>
      acc.withColumn(c,
        when(col(c).isNull, concat(lit("null"), col("__rid"), lit(s"c${df.columns.indexOf(c)}")))
          .otherwise(col(c)))
    }

  /** Enforce the FD `lhs → rhs`: groups that agree on all of `lhs` get a
    * single skolem value for `rhs` whenever the group contains a NULL or
    * more than one distinct `rhs` value. Groups with a NULL in `lhs` are
    * left untouched (no evidence to merge on). */
  def enforceFd(df: DataFrame, lhs: Seq[String], rhs: String): DataFrame = {
    val grp = Window.partitionBy(lhs.map(col): _*)
    val lhsNonNull: Column = lhs.map(col(_).isNotNull).reduce(_ && _)
    val distinctRhs = size(collect_set(col(rhs)).over(grp))
    val hasNull = max(when(col(rhs).isNull, 1).otherwise(0)).over(grp)
    val skolem = concat(lit("sk"), abs(hash(lhs.map(col): _*)))
    df.withColumn(rhs,
      when(lhsNonNull && (hasNull === 1 || distinctRhs > 1), skolem)
        .otherwise(col(rhs)))
  }
}
