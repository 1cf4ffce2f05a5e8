package repro.core

/** Numeric cells: recognising them and the §4.1 rounding to significant
  * figures. */
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
}
