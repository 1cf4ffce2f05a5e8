package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

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
  /** `shared` holds the token names of the whole-cell values present in both
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

  private def tokenName(norm: String): String =
    if (norm.startsWith(NodeNames.RidPrefix) || norm.startsWith(NodeNames.CidPrefix) ||
        norm.startsWith(EscapeMarker)) EscapeMarker + norm else norm

  /** Token node names for one cell under the given strategy. */
  def tokens(raw: String, strategy: Strategy, sigFigs: Int = 4): Seq[String] =
    normalize(raw, sigFigs) match {
      case None => Seq.empty
      case Some(norm) =>
        strategy match {
          case Simple          => Seq(tokenName(norm))
          case Flatten         => words(norm)
          case Overlap(shared) =>
            val whole = tokenName(norm)
            if (shared.contains(whole)) Seq(whole) else words(norm)
        }
    }

  /** Normalized values of every cell of `rel`; NULL and blank cells give none. */
  def values(rel: Relation, sigFigs: Int): Set[String] =
    rel.allCells.flatMap(normalize(_, sigFigs)).toSet

  /** Per data column of `rel`, its distinct token names under `strategy`, in
    * row order: the attribute domains of the baselines and quality tests. */
  def columnTokens(rel: Relation, strategy: Strategy): Seq[(String, IndexedSeq[String])] =
    rel.columns.map(c => c -> rel.values(c).flatMap(tokens(_, strategy)).distinct.toIndexedSeq)

  /** Whole-cell values occurring in both relations, as token names (escaped
    * like [[tokens]] does) — the EmbDI-O bridge set, part of the §5.1 start
    * set and the overlap statistic of Table 1. */
  def sharedValues(r1: Relation, r2: Relation, sigFigs: Int): Set[String] =
    values(r1, sigFigs).intersect(values(r2, sigFigs)).map(tokenName)

  /** Token names (under `strategy`) occurring in both relations — the walk
    * start set of the §5.1 overlap heuristic. */
  def sharedTokens(r1: Relation, r2: Relation, strategy: Strategy, sigFigs: Int): Set[String] = {
    def names(rel: Relation) = rel.allCells.flatMap(tokens(_, strategy, sigFigs)).toSet
    names(r1).intersect(names(r2))
  }

  /** [[sharedValues]] of two datasets, each read once. */
  def sharedValues(spark: SparkSession, d1: DataFrame, d2: DataFrame,
                   sigFigs: Int = 4): Set[String] =
    sharedValues(Relation.read(d1), Relation.read(d2), sigFigs)

  /** [[sharedTokens]] of two datasets, each read once. */
  def sharedTokens(spark: SparkSession, d1: DataFrame, d2: DataFrame,
                   strategy: Strategy, sigFigs: Int = 4): Set[String] =
    sharedTokens(Relation.read(d1), Relation.read(d2), strategy, sigFigs)

  /** [[values]] of one dataset as a one-column DataFrame `value`. */
  def distinctValues(spark: SparkSession, df: DataFrame, sigFigs: Int = 4): DataFrame = {
    import spark.implicits._
    values(Relation.read(df), sigFigs).toSeq.toDF("value")
  }
}
