package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

/** Cell-value tokenization strategies of §5.5 / §7.2.
  *
  *  - [[Tokenization.Simple]]   (EmbDI-S): the whole cell value is one token
  *    node ("iPad 4th 2012" → `ipad_4th_2012`).
  *  - [[Tokenization.Flatten]]  (EmbDI-F): the cell is split on whitespace and
  *    every word becomes its own token node, all connected to the same RID/CID.
  *  - [[Tokenization.Overlap]]  (EmbDI-O): cell values that occur in *both*
  *    datasets stay whole (they are the bridges between the relations);
  *    values private to one dataset are split into words.
  */
object Tokenization {

  sealed trait Strategy { def name: String }
  case object Simple  extends Strategy { val name = "EmbDI-S" }
  case object Flatten extends Strategy { val name = "EmbDI-F" }
  /** `shared` is the set of normalized whole-cell values present in both
    * datasets (computed once via [[sharedValues]]). */
  final case class Overlap(shared: Set[String]) extends Strategy { val name = "EmbDI-O" }

  /** Canonical form of a whole cell value: trimmed, lower-cased, inner
    * whitespace collapsed to single `_`. Numeric strings are rounded to
    * `sigFigs` significant figures per §4.1 ("numerical values are rounded
    * to a number of significant figures decided by the user"). */
  def normalize(raw: String, sigFigs: Int = 4): Option[String] = {
    if (raw == null) return None
    val t = raw.trim.toLowerCase
    if (t.isEmpty) None
    else Numerics.parseNumeric(t) match {
      case Some(d) => Some(Numerics.roundSig(d, sigFigs))
      case None    => Some(t.split("\\s+").mkString("_"))
    }
  }

  /** Words of a (already trimmed, lower-cased) cell. */
  private def words(norm: String): Seq[String] =
    norm.split('_').toIndexedSeq.filter(_.nonEmpty)

  /** Prepended to a whole-cell token that starts with a RID or CID prefix,
    * or with this marker itself, so that node kinds read from name prefixes
    * stay right: the cell `idx__0` is the token `tok__idx__0`, not RID 0.
    * The rule is injective. Words hold no `_`, so they never need it. */
  private val EscapeMarker = "tok__"

  private def whole(norm: String): Seq[String] = Seq(
    if (norm.startsWith(NodeNames.RidPrefix) || norm.startsWith(NodeNames.CidPrefix) ||
        norm.startsWith(EscapeMarker)) EscapeMarker + norm else norm)

  /** Token node names for one cell under the given strategy. */
  def tokens(raw: String, strategy: Strategy, sigFigs: Int = 4): Seq[String] =
    normalize(raw, sigFigs) match {
      case None => Seq.empty
      case Some(norm) =>
        strategy match {
          case Simple          => whole(norm)
          case Flatten         => words(norm)
          case Overlap(shared) => if (shared.contains(norm)) whole(norm) else words(norm)
        }
    }

  /** Every data cell of `df` (all columns but `__rid`) as a string, NULLs included,
    * melted in one projection: a `select` + `union` per column scans once per column. */
  private[core] def cells(spark: SparkSession, df: DataFrame): Dataset[String] = {
    import spark.implicits._
    val dataCols = df.columns.filterNot(_ == "__rid").toSeq
    df.select(explode(array(dataCols.map(c => col(c).cast("string")): _*))).as[String]
  }

  /** Normalized whole-cell values occurring in both datasets (DataFrame
    * intersection over all data columns) — the EmbDI-O bridge set and the
    * overlap statistic of Table 1. */
  def sharedValues(spark: SparkSession, d1: DataFrame, d2: DataFrame,
                   sigFigs: Int = 4): Set[String] = {
    distinctValues(spark, d1, sigFigs).intersect(distinctValues(spark, d2, sigFigs))
      .collect().map(_.getString(0)).toSet
  }

  /** Token-level shared set: token node names (under `strategy`) occurring
    * in both datasets — the walk start set for the §5.1 overlap heuristic. */
  def sharedTokens(spark: SparkSession, d1: DataFrame, d2: DataFrame,
                   strategy: Strategy, sigFigs: Int = 4): Set[String] = {
    import spark.implicits._
    def toks(df: DataFrame): DataFrame =
      cells(spark, df).flatMap(v => tokens(v, strategy, sigFigs)).toDF("t").distinct()
    toks(d1).intersect(toks(d2)).collect().map(_.getString(0)).toSet
  }

  /** One-column DataFrame `value` of distinct normalized cell values. */
  def distinctValues(spark: SparkSession, df: DataFrame, sigFigs: Int = 4): DataFrame = {
    import spark.implicits._
    cells(spark, df).flatMap(v => normalize(v, sigFigs)).toDF("value").distinct()
  }
}
