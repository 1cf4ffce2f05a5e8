package repro.bench

import repro.SparkSpec
import repro.eval.Bench

/** Table 5: effect of n_top on ER precision / recall / F for the six
  * scenarios the paper reports (AG, BB, DA, IA, IM, WA).
  */
class Table5Bench extends SparkSpec {

  private val scenarios = Bench.table5Scenarios

  test("Table 5: n_top precision/recall trade-off") {
    BenchOut.reset("table5")
    val byScenario = scenarios.map { s =>
      val rows = Bench.table5Rows(spark, Bench.bundle(spark, s))
      rows.foreach(r => BenchOut.emit("table5", r.render))
      s -> rows.map(r => r.nTop -> r.prf).toMap
    }.toMap
    // expected trade-off: recall does not drop when n_top grows
    scenarios.foreach { s =>
      val r1 = byScenario(s)(1).recall
      val r100 = byScenario(s)(100).recall
      assert(r100 >= r1 - 0.08, s"$s recall fell from $r1 (ntop=1) to $r100 (ntop=100)")
    }
    // precision at n_top=1 is at least precision at n_top=100 on average
    val p1 = scenarios.map(s => byScenario(s)(1).precision).sum / scenarios.size
    val p100 = scenarios.map(s => byScenario(s)(100).precision).sum / scenarios.size
    assert(p1 >= p100 - 0.05, s"mean precision ntop=1 $p1 < ntop=100 $p100")
  }
}
