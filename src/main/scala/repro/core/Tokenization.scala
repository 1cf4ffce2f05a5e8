package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Cell-value tokenization strategies of §5.5 / §7.2, applied to cells in
  * the §4.1 normal form ([[normalize]]) that [[Relation.read]] stores.
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
  /** `shared` holds the token names of the whole-cell values present in both
    * datasets (computed once via [[sharedValues]]). */
  final case class Overlap(shared: Set[String]) extends Strategy { val name = "EmbDI-O" }

  /** Significant figures numeric cells are rounded to (§4.1 leaves the
    * number to the user; every table here uses four). */
  val SigFigs = 4

  /** Canonical form of a whole cell value: trimmed, lower-cased, inner
    * whitespace collapsed to single `_`. Numeric strings are rounded to
    * [[SigFigs]] significant figures per §4.1. */
  def normalize(raw: String): Option[String] = {
    if (raw == null) return None
    val t = raw.trim.toLowerCase
    if (t.isEmpty) None
    else Numerics.parseNumeric(t) match {
      case Some(d) => Some(Numerics.roundSig(d, SigFigs))
      case None    => Some(t.split("\\s+").mkString("_"))
    }
  }

  /** Words of a normalized cell. */
  private def words(norm: String): Seq[String] =
    norm.split('_').toIndexedSeq.filter(_.nonEmpty)

  /** Token node names of one normalized cell (`null` gives none) under the
    * given strategy. */
  def tokens(cell: String, strategy: Strategy): Seq[String] =
    if (cell == null) Seq.empty
    else strategy match {
      case Simple          => Seq(NodeNames.token(cell))
      case Flatten         => words(cell)
      case Overlap(shared) =>
        val whole = NodeNames.token(cell)
        if (shared.contains(whole)) Seq(whole) else words(cell)
    }

  /** Distinct normalized cells of `rel`. */
  def values(rel: Relation): Set[String] = rel.allCells.toSet

  /** Per data column of `rel`, its distinct token names under `strategy`, in
    * row order: the attribute domains of the baselines and quality tests. */
  def columnTokens(rel: Relation, strategy: Strategy): Seq[(String, IndexedSeq[String])] =
    rel.columns.map(c => c -> rel.values(c).flatMap(tokens(_, strategy)).distinct.toIndexedSeq)

  /** Whole-cell values occurring in both relations, as token names (escaped
    * like [[tokens]] does) — the EmbDI-O bridge set, part of the §5.1 start
    * set and the overlap statistic of Table 1. */
  def sharedValues(r1: Relation, r2: Relation): Set[String] =
    values(r1).intersect(values(r2)).map(NodeNames.token)

  /** Token names (under `strategy`) occurring in both relations — the walk
    * start set of the §5.1 overlap heuristic. */
  def sharedTokens(r1: Relation, r2: Relation, strategy: Strategy): Set[String] = {
    def names(rel: Relation) = rel.allCells.flatMap(tokens(_, strategy)).toSet
    names(r1).intersect(names(r2))
  }

  /** [[sharedValues]] of two datasets, each read once. */
  def sharedValues(spark: SparkSession, d1: DataFrame, d2: DataFrame): Set[String] =
    sharedValues(Relation.read(d1), Relation.read(d2))

  /** [[sharedTokens]] of two datasets, each read once. */
  def sharedTokens(spark: SparkSession, d1: DataFrame, d2: DataFrame,
                   strategy: Strategy): Set[String] =
    sharedTokens(Relation.read(d1), Relation.read(d2), strategy)

  /** [[values]] of one dataset as a one-column DataFrame `value`. `sigFigs`
    * must be [[SigFigs]]. */
  def distinctValues(spark: SparkSession, df: DataFrame, sigFigs: Int = SigFigs): DataFrame = {
    require(sigFigs == SigFigs, s"cells are rounded to $SigFigs significant figures, not $sigFigs")
    import spark.implicits._
    values(Relation.read(df)).toSeq.toDF("value")
  }
}
