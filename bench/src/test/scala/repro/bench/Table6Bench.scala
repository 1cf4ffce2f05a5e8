package repro.bench

import repro.SparkSpec
import repro.core.Relation
import repro.data.Scenarios
import repro.eval.Bench

/** Table 6: execution times for embedding generation — EmbDI's G / W / E
  * breakdown plus Node2Vec and HARP walk+train times on the same graph and
  * corpus budget. G starts from relations the bundle has already read; each
  * row ends with the time of a second read of the scenario's tables.
  */
class Table6Bench extends SparkSpec {

  test("Table 6: execution time breakdown") {
    BenchOut.reset("table6")
    val rows = Scenarios.allConfigs.map { cfg =>
      val b = Bench.bundle(spark, cfg.shorthand)
      val row = Bench.timingRow(b)
      val t0 = System.nanoTime()
      (if (cfg.singleTable) Seq(b.scenario.d1) else Seq(b.scenario.d1, b.scenario.d2))
        .foreach(Relation.read)
      BenchOut.emit("table6", f"${row.render} read=${(System.nanoTime() - t0) / 1e9}%5.2f")
      row
    }
    rows.foreach { r =>
      assert(r.graphMs >= 0 && r.walkMs > 0 && r.trainMs > 0)
    }
    // paper shape: graph construction is a small fraction of total time and
    // embedding training dominates walks.
    val totG = rows.map(_.graphMs).sum.toDouble
    val totW = rows.map(_.walkMs).sum.toDouble
    val totE = rows.map(_.trainMs).sum.toDouble
    BenchOut.emit("table6",
      f"SHARE G=${totG / (totG + totW + totE) * 100}%.1f%% " +
      f"W=${totW / (totG + totW + totE) * 100}%.1f%% " +
      f"E=${totE / (totG + totW + totE) * 100}%.1f%%")
    assert(totG < (totG + totW + totE) * 0.5, "graph construction unexpectedly dominant")
  }
}
