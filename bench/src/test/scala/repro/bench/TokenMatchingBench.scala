package repro.bench

import repro.SparkSpec
import repro.eval.Bench

/** §7.2 Token Matching on the IM scenario: for the two aligned column pairs
  * holding the same entities in different formats (country names vs codes,
  * languages vs codes), compare pre-trained embeddings, trigram Jaccard and
  * EmbDI embeddings. Paper: countries .13 / .19 / .31, languages .17 / .20 / .30.
  */
class TokenMatchingBench extends SparkSpec {

  test("Token matching on IM country and language columns") {
    BenchOut.reset("tokenmatching")
    Bench.tokenMatchingRows(Bench.bundle(spark, "IM")).foreach { r =>
      BenchOut.emit("tokenmatching", r.render)
      assert(r.embdi >= r.jaccard - 0.02, s"${r.col1}: EmbDI ${r.embdi} below Jaccard ${r.jaccard}")
    }
  }
}
