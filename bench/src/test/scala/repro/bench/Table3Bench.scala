package repro.bench

import repro.SparkSpec
import repro.data.Scenarios
import repro.eval.Bench

/** Table 3: unsupervised Schema Matching F-measure — Base (bag of words),
  * EmbDI / Node2Vec / Harp embeddings through Algorithm 5, and the SEEP
  * system with pre-trained (SeepP) vs EmbDI (SeepL) embeddings.
  */
class Table3Bench extends SparkSpec with TestTimes {

  test("Table 3: schema matching across methods") {
    BenchOut.reset("table3")
    val table = Bench.table3(Scenarios.integrationConfigs.map(cfg => Bench.bundle(spark, cfg.shorthand)))
    table.lines.foreach(BenchOut.emit("table3", _))
    val rows = table.rows.map(_.scores.toMap)
    def mean(m: String) = rows.map(_(m)).sum / rows.size
    // Paper shape: EmbDI-driven matching at least on par with SeepP. Our
    // synthetic attribute labels are string-informative, which props SeepP
    // up relative to the paper's setting (see EXPERIMENTS.md), so SeepL is
    // held to a tolerance rather than strict dominance.
    assert(mean("EmbDI") >= mean("SeepP") - 0.02, "EmbDI below SeepP on average")
    assert(mean("SeepL") >= mean("SeepP") - 0.12, "SeepL far below SeepP on average")
    assert(mean("EmbDI") > 0.5, s"EmbDI SM mean ${mean("EmbDI")}")
  }
}
