package repro.bench

import repro.SparkSpec
import repro.data.Scenarios
import repro.eval.Bench

/** Table 2: embedding quality (MA/MR/MC pass fractions) for Basic,
  * Node2Vec, Harp and EmbDI on all 9 scenarios, plus the pre-trained
  * footnote numbers for BB and AG.
  */
class Table2Bench extends SparkSpec with TestTimes {

  test("Table 2: local embedding quality across methods") {
    BenchOut.reset("table2")
    // Rows, the pre-trained footnote (§7.1) and the cross-scenario means.
    val table = Bench.table2(Scenarios.allConfigs.map(cfg => Bench.bundle(spark, cfg.shorthand)))
    table.lines.foreach(BenchOut.emit("table2", _))
    // shape: EmbDI wins (or ties within noise) on the cross-scenario mean
    val grand = table.rows.groupBy(_.shorthand).values.toSeq
      .map(_.map(r => r.method -> r.scores.avg).toMap)
    def mean(m: String) = grand.map(_(m)).sum / grand.size
    val embdi = mean("EmbDI")
    assert(embdi >= mean("Basic") - 0.02, "EmbDI below Basic on average")
    assert(embdi > 0.4, s"EmbDI grand mean $embdi")
  }
}
