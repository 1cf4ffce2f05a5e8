package repro.bench

import repro.SparkSpec
import repro.data.Scenarios
import repro.eval.Bench

/** Table 2: embedding quality (MA/MR/MC pass fractions) for Basic,
  * Node2Vec, Harp and EmbDI on all 9 scenarios, plus the pre-trained
  * footnote numbers for BB and AG.
  */
class Table2Bench extends SparkSpec {

  test("Table 2: local embedding quality across methods") {
    BenchOut.reset("table2")
    val perScenarioAvg = scala.collection.mutable.Map.empty[String, Map[String, Double]]
    Scenarios.allConfigs.foreach { cfg =>
      val rows = Bench.table2Rows(Bench.bundle(spark, cfg.shorthand))
      rows.foreach(r => BenchOut.emit("table2", r.render))
      perScenarioAvg(cfg.shorthand) = rows.map(r => r.method -> r.scores.avg).toMap
    }
    // pre-trained footnote (§7.1 reports BB .33 and AG .16 averages)
    Seq("BB", "AG").foreach { s =>
      val b = Bench.bundle(spark, s)
      val q = Bench.scoreQuality(b.pretrained, Bench.qualityTests(b))
      BenchOut.emit("table2", Bench.QualityRow(s, "Pretrain", q).render)
    }
    // shape: EmbDI wins (or ties within noise) on the cross-scenario mean
    val grand = perScenarioAvg.values.toSeq
    def mean(m: String) = grand.map(_(m)).sum / grand.size
    val embdi = mean("EmbDI")
    BenchOut.emit("table2",
      f"MEAN Basic=${mean("Basic")}%.2f Node2Vec=${mean("Node2Vec")}%.2f " +
      f"Harp=${mean("Harp")}%.2f EmbDI=$embdi%.2f")
    assert(embdi >= mean("Basic") - 0.02, "EmbDI below Basic on average")
    assert(embdi > 0.4, s"EmbDI grand mean $embdi")
  }
}
