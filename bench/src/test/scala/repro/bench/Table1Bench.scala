package repro.bench

import repro.SparkSpec
import repro.data.Scenarios
import repro.eval.Bench

/** Table 1: dataset properties — #tuples, #columns, #distinct values,
  * #matches, #sentences, %overlap — for all 9 scenarios.
  */
class Table1Bench extends SparkSpec {

  test("Table 1: dataset properties for every scenario") {
    BenchOut.reset("table1")
    val table = Bench.table1(Scenarios.allConfigs.map(cfg => Bench.bundle(spark, cfg.shorthand)))
    table.lines.foreach(BenchOut.emit("table1", _))
    Scenarios.allConfigs.zip(table.rows).foreach { case (cfg, row) =>
      assert(row.tuples > 0 && row.distinctValues > 0 && row.sentences > 0)
      if (!cfg.singleTable) {
        assert(row.matches == cfg.nShared.toLong)
        // the paper's scenarios sit between ~2% and ~65% value overlap
        assert(row.overlapPct > 0.5 && row.overlapPct < 80.0,
          s"${cfg.shorthand} overlap ${row.overlapPct}")
      }
    }
  }
}
