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
    BenchOut.emit("table1",
      f"${"DS"}%-4s ${"tuples"}%8s ${"cols"}%4s ${"distinct"}%9s " +
      f"${"matches"}%8s ${"sentences"}%10s ${"overlap%"}%7s")
    Scenarios.allConfigs.foreach { cfg =>
      val row = Bench.table1Row(Bench.bundle(spark, cfg.shorthand))
      BenchOut.emit("table1", row.render)
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
