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

  test("fit estimates mean and std") {
    val f = Numerics.fit(Seq("10", "20", "30")).get
    assert(math.abs(f.mean - 20.0) < 1e-9)
    assert(math.abs(f.std - 10.0) < 1e-9)
  }

  test("fit ignores non-numeric values") {
    val f = Numerics.fit(Seq("10", "abc", "30", null)).get
    assert(math.abs(f.mean - 20.0) < 1e-9)
  }

  test("fit returns None with fewer than two numeric values") {
    assert(Numerics.fit(Seq("abc", "5")).isEmpty)
    assert(Numerics.fit(Seq.empty).isEmpty)
  }

  test("replacement only proposes values inside the attribute domain") {
    val vals = (1 to 50).map(_.toString)
    val f = Numerics.fit(vals).get
    val rng = new Random(1)
    (0 until 200).foreach { _ =>
      f.replacement(25.0, rng, scale = 0.5).foreach { r =>
        assert(f.domain.contains(r))
        assert(r != "25")
      }
    }
  }

  test("replacement in a dense micro-range never crosses to distant values") {
    // The §5.3 counterexample: {1, 1.00001, ...} — with a tiny std the
    // proposed neighbours stay local.
    val vals = (0 to 100).map(i => (1.0 + i * 0.00001).toString)
    val f = Numerics.fit(vals, sigFigs = 6).get
    val rng = new Random(2)
    (0 until 200).foreach { _ =>
      f.replacement(1.0005, rng).foreach { r =>
        assert(math.abs(r.toDouble - 1.0005) < 0.001)
      }
    }
  }

  test("replacementTable maps tokens to in-domain candidates with the given probability") {
    val table = Numerics.replacementTable(Map("year" -> (1990 to 2020).map(_.toString)), prob = 0.25)
    table.foreach { case (tok, (repl, p)) =>
      assert(p == 0.25)
      assert(tok != repl)
      assert((1990 to 2020).map(_.toString).contains(repl))
    }
  }

  test("replacementTable is deterministic in the seed") {
    val cols = Map("x" -> (1 to 30).map(_.toString))
    assert(Numerics.replacementTable(cols, seed = 5L) == Numerics.replacementTable(cols, seed = 5L))
  }
}
