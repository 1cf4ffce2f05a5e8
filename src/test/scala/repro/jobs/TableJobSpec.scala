package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Scenarios
import repro.eval.Bench

/** Argument parsing of the table job; no Spark session is started. */
class TableJobSpec extends AnyFunSuite {

  test("no scenarios runs all of the table's scenarios") {
    assert(TableJob.parse(Seq("1")) == Right("1" -> Scenarios.allConfigs.map(_.shorthand)))
    assert(TableJob.parse(Seq("4")) == Right("4" -> Scenarios.integrationConfigs.map(_.shorthand)))
    assert(TableJob.parse(Seq("5")) == Right("5" -> Bench.table5Scenarios))
    assert(TableJob.parse(Seq("tm")) == Right("tm" -> Seq("IM")))
  }

  test("shorthands and table names are case-insensitive") {
    assert(TableJob.parse(Seq("4", "fz", "Da")) == Right("4" -> Seq("FZ", "DA")))
    assert(TableJob.parse(Seq("TM", "im")) == Right("tm" -> Seq("IM")))
  }

  test("an unknown table is rejected with the known ones") {
    val e = TableJob.parse(Seq("7", "FZ"))
    assert(e == Left("unknown table '7' (known: 1, 2, 3, 4, 5, 6, tm, geom)"))
    assert(TableJob.parse(Seq.empty).left.exists(_.startsWith("usage: TableJob <1|2|3|4|5|6|tm|geom>")))
  }

  test("geom runs on dataset pairs, IM and BB by default") {
    assert(TableJob.parse(Seq("geom")) == Right("geom" -> Seq("IM", "BB")))
    assert(TableJob.parse(Seq("GEOM", "fz")) == Right("geom" -> Seq("FZ")))
    assert(TableJob.parse(Seq("geom", "MSD")) ==
      Left("unknown scenario 'MSD' for table geom (known: IM, AG, WA, IA, FZ, DA, DS, BB)"))
  }

  test("an unknown scenario is rejected with the table's scenarios") {
    assert(TableJob.parse(Seq("4", "FZ", "FZZ")) ==
      Left("unknown scenario 'FZZ' for table 4 (known: IM, AG, WA, IA, FZ, DA, DS, BB)"))
    // MSD is a single relation: no integration table runs on it.
    assert(TableJob.parse(Seq("3", "MSD")).isLeft)
    assert(TableJob.parse(Seq("1", "MSD")) == Right("1" -> Seq("MSD")))
    assert(TableJob.parse(Seq("tm", "FZ")).isLeft)
  }
}
