package repro.core

import scala.util.Random

/** Numeric-value handling (§4.1 rounding and §5.3 distribution-aware
  * replacement).
  */
object Numerics {

  private val NumRe = "^-?\\d+(\\.\\d+)?([eE][-+]?\\d+)?$".r

  /** Parse a purely numeric cell, plain or scientific ("1.2345678E7"); formatted
    * strings like "555-0123" and overflowing ones like "1e999" stay categorical. */
  def parseNumeric(s: String): Option[Double] =
    if (NumRe.matches(s)) s.toDoubleOption.filterNot(_.isInfinite) else None

  /** Round to `sig` significant figures, rendered plainly without trailing
    * zeros ("2012" stays "2012"; 1e-4 gives "0.0001", not "1.0E-4"). Decimal
    * rounding goes through BigDecimal — float factor arithmetic would break
    * idempotence (e.g. -998691.3 @ 2 figs → -999999.9999999999). */
  def roundSig(d: Double, sig: Int): String =
    new java.math.BigDecimal(d)
      .round(new java.math.MathContext(sig, java.math.RoundingMode.HALF_UP))
      .stripTrailingZeros.toPlainString

  /** Gaussian fit of a numeric attribute domain. */
  final case class Fit(mean: Double, std: Double, domain: Set[String], sigFigs: Int) {

    /** §5.3: given value `i`, draw `r ~ N(i, std·scale)`; if `r` (rounded to
      * the attribute's significant figures) is part of the attribute domain,
      * replace `i` with `r` — numbers swap only with plausible neighbours,
      * at a rate governed by how concentrated the attribute is. */
    def replacement(value: Double, rng: Random, scale: Double = 0.05): Option[String] = {
      val r = value + rng.nextGaussian() * std * scale
      val rounded = roundSig(r, sigFigs)
      if (rounded != roundSig(value, sigFigs) && domain.contains(rounded)) Some(rounded)
      else None
    }
  }

  /** Estimate mean/std of the parseable values of a column; `values` are the
    * raw cell strings of one attribute. */
  def fit(values: Seq[String], sigFigs: Int = 4): Option[Fit] = {
    val nums = values.flatMap(v => Option(v).map(_.trim).flatMap(parseNumeric))
    if (nums.size < 2) None
    else {
      val mean = nums.sum / nums.size
      val std  = math.sqrt(nums.map(x => (x - mean) * (x - mean)).sum / (nums.size - 1))
      val dom  = nums.map(roundSig(_, sigFigs)).toSet
      Some(Fit(mean, std, dom, sigFigs))
    }
  }

  /** Build the node-replacement table for every numeric attribute of a
    * dataset: token → (candidate replacement, probability). Used by the
    * walker's replacement hook (§5.3 "Handling Numeric Data"). */
  def replacementTable(columns: Map[String, Seq[String]], prob: Double = 0.3,
                       sigFigs: Int = 4, seed: Long = 0L): Map[String, (String, Double)] = {
    val rng = new Random(seed)
    columns.toSeq.sortBy(_._1).flatMap { case (_, values) =>
      fit(values, sigFigs).toSeq.flatMap { f =>
        f.domain.toSeq.sorted.flatMap { tok =>
          tok.toDoubleOption.flatMap(v => f.replacement(v, rng).map(r => tok -> (r, prob)))
        }
      }
    }.toMap
  }
}
