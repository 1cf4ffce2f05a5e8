package repro.bench

import repro.SparkSpec
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
    val table = Bench.table6(Scenarios.allConfigs.map(cfg => Bench.bundle(spark, cfg.shorthand)))
    table.lines.foreach(BenchOut.emit("table6", _))
    val rows = table.rows
    rows.foreach { r =>
      assert(r.graphMs >= 0 && r.walkMs > 0 && r.trainMs > 0)
    }
    // paper shape: graph construction is a small fraction of total time and
    // embedding training dominates walks.
    val totG = rows.map(_.graphMs).sum.toDouble
    val totW = rows.map(_.walkMs).sum.toDouble
    val totE = rows.map(_.trainMs).sum.toDouble
    assert(totG < (totG + totW + totE) * 0.5, "graph construction unexpectedly dominant")
  }
}
