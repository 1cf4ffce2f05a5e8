package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class NumericsSpec extends AnyFunSuite {

  test("parseNumeric accepts integers and decimals") {
    assert(Numerics.parseNumeric("42").contains(42.0))
    assert(Numerics.parseNumeric("-3.5").contains(-3.5))
  }

  test("parseNumeric rejects formatted and mixed strings") {
    assert(Numerics.parseNumeric("555-0123").isEmpty)
    assert(Numerics.parseNumeric("12a").isEmpty)
    assert(Numerics.parseNumeric("1.2.3").isEmpty)
    assert(Numerics.parseNumeric("").isEmpty)
  }

  test("parseNumeric accepts scientific notation but not overflow") {
    assert(Numerics.parseNumeric("1.2345678E7").contains(1.2345678e7))
    assert(Numerics.parseNumeric("1.0e-4").contains(1.0e-4))
    assert(Numerics.parseNumeric("1e999").isEmpty)
    assert(Numerics.parseNumeric("e5").isEmpty)
  }

  test("roundSig keeps magnitude") {
    assert(Numerics.roundSig(123456, 2) == "120000")
    assert(Numerics.roundSig(0.0123456, 3) == "0.0123")
  }

  test("roundSig renders integers without decimal point") {
    assert(Numerics.roundSig(2012, 4) == "2012")
    assert(Numerics.roundSig(5.0, 3) == "5")
  }

  test("roundSig of zero") { assert(Numerics.roundSig(0.0, 3) == "0") }

  test("roundSig handles negatives") {
    assert(Numerics.roundSig(-123456, 2) == "-120000")
  }

  test("roundSig is idempotent (property)") {
    val rng = new Random(7)
    (0 until 300).foreach { _ =>
      val d = (rng.nextDouble() - 0.5) * 2e6
      val sig = 2 + rng.nextInt(5)
      if (math.abs(d) > 1e-9) {
        val once = Numerics.roundSig(d, sig)
        assert(Numerics.roundSig(once.toDouble, sig) == once, s"d=$d sig=$sig")
      }
    }
  }

  test("roundSig renders plain notation at any magnitude, idempotently (property)") {
    assert(Numerics.roundSig(1.0e-4, 3) == "0.0001")
    assert(Numerics.roundSig(1.23456789e20, 4) == "123500000000000000000")
    assert(Numerics.roundSig(-1.2345e-9, 2) == "-0.0000000012")
    val rng = new Random(11)
    (0 until 300).foreach { _ =>
      val d = (rng.nextDouble() - 0.5) * math.pow(10, rng.nextInt(40) - 20)
      val sig = 1 + rng.nextInt(6)
      if (d != 0.0) {
        val once = Numerics.roundSig(d, sig)
        assert(!once.contains('E') && !once.contains('e'), s"d=$d sig=$sig -> $once")
        assert(Numerics.roundSig(Numerics.parseNumeric(once).get, sig) == once, s"d=$d sig=$sig")
      }
    }
  }
}
