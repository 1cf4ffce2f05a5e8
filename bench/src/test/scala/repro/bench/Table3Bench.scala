package repro.bench

import repro.SparkSpec
import repro.data.Scenarios
import repro.eval.Bench

/** Table 3: unsupervised Schema Matching F-measure — Base (bag of words),
  * EmbDI / Node2Vec / Harp embeddings through Algorithm 5, and the SEEP
  * system with pre-trained (SeepP) vs EmbDI (SeepL) embeddings.
  */
class Table3Bench extends SparkSpec {

  test("Table 3: schema matching across methods") {
    BenchOut.reset("table3")
    val rows = Scenarios.integrationConfigs.map { cfg =>
      val row = Bench.table3Row(Bench.bundle(spark, cfg.shorthand))
      BenchOut.emit("table3", row.render)
      row.scores.toMap
    }
    def mean(m: String) = rows.map(_(m)).sum / rows.size
    BenchOut.emit("table3",
      f"MEAN Base=${mean("Base")}%.2f EmbDI=${mean("EmbDI")}%.2f " +
      f"Node2Vec=${mean("Node2Vec")}%.2f Harp=${mean("Harp")}%.2f " +
      f"SeepP=${mean("SeepP")}%.2f SeepL=${mean("SeepL")}%.2f")
    // Paper shape: EmbDI-driven matching at least on par with SeepP. Our
    // synthetic attribute labels are string-informative, which props SeepP
    // up relative to the paper's setting (see EXPERIMENTS.md), so SeepL is
    // held to a tolerance rather than strict dominance.
    assert(mean("EmbDI") >= mean("SeepP") - 0.02, "EmbDI below SeepP on average")
    assert(mean("SeepL") >= mean("SeepP") - 0.12, "SeepL far below SeepP on average")
    assert(mean("EmbDI") > 0.5, s"EmbDI SM mean ${mean("EmbDI")}")
  }
}
