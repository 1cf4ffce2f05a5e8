package repro.bench

import repro.SparkSpec
import repro.data.Scenarios
import repro.eval.Bench

/** Table 4: Entity Resolution F-measure.
  *
  * Unsupervised: fastText stand-in, EmbDI-S/F/O, Node2Vec, Harp (all via
  * Algorithm 6, n_top = 10). Supervised: DeepER with pre-trained vs EmbDI
  * embeddings at 5 % labels, plus the task-specific (tuned) variants.
  */
class Table4Bench extends SparkSpec {

  test("Table 4: entity resolution across methods") {
    BenchOut.reset("table4")
    val table = Bench.table4(spark,
      Scenarios.integrationConfigs.map(cfg => Bench.bundle(spark, cfg.shorthand)))
    table.lines.foreach(BenchOut.emit("table4", _))
    val rows = table.rows.map(_.scores.toMap)
    def mean(m: String) = rows.map(_(m)).sum / rows.size
    // Paper shape: local embeddings at least competitive with the
    // pre-trained space (the stand-in has no true-OOV handicap and our
    // corpus is 10× below the paper's rule — see EXPERIMENTS.md), and
    // supervised DeepER not hurt by local embeddings.
    assert(mean("EmbDI-O") >= mean("fastText") - 0.10,
      s"EmbDI-O ${mean("EmbDI-O")} far below fastText ${mean("fastText")}")
    assert(mean("DeepERL") >= mean("DeepERP") - 0.10,
      s"DeepER-L ${mean("DeepERL")} far below DeepER-P ${mean("DeepERP")}")
  }
}
