package repro.bench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.eval.Bench
import repro.integration.EntityResolver

/** §7.3 ablations, reported as numbers (figures are out of scope):
  *
  *  - walk length 60 → 5 → 3 for schema matching on DS (paper: 5 raises DS
  *    to F=1, 3 hurts again);
  *  - word2vec window 5 vs 3 (paper: larger window hurts);
  *  - the §5.3 replacement optimisation with an external country dictionary
  *    (paper: ~+3% ER);
  *  - the §5.4 alignment refinement (paper: ~+2% ER);
  *  - Figure 3: ER on IM with increasing NULLs in Year, Skip vs FD policy.
  *
  * Each variant changes one setting of the bundle's EmbDI-O configuration.
  */
class AblationBench extends SparkSpec {

  private def smF(b: Bench.Bundle, model: EmbeddingModel): Double =
    Bench.smScore(b, model).f1

  test("Ablation: walk length for SM on DS") {
    BenchOut.reset("ablation")
    val b = Bench.bundle(spark, "DS")
    val f60 = smF(b, b.embdiO.model)
    val cfg = b.embdiOConfig
    val byLen = Seq(5, 3).map { len =>
      val res = EmbDI.run(b.relations, cfg.copy(walk = cfg.walk.copy(walkLength = len)))
      len -> smF(b, res.model)
    }.toMap
    BenchOut.emit("ablation", f"walklen DS SM: len60=$f60%.2f len5=${byLen(5)}%.2f len3=${byLen(3)}%.2f")
    assert(byLen(5) >= f60 - 0.25, s"walk length 5 collapsed: ${byLen(5)} vs 60: $f60")
  }

  test("Ablation: word2vec window size on DA") {
    val b = Bench.bundle(spark, "DA")
    val q3 = Bench.scoreQuality(b.embdiO.model, Bench.qualityTests(b, 200))
    val cfg = b.embdiOConfig
    val res5 = EmbDI.run(b.relations, cfg.copy(w2v = cfg.w2v.copy(window = 5)))
    val q5 = Bench.scoreQuality(res5.model, Bench.qualityTests(b, 200))
    BenchOut.emit("ablation", f"window DA EQ: w3 ${q3.render} | w5 ${q5.render}")
    // paper: window 5 is not better; allow noise
    assert(q5.avg <= q3.avg + 0.1, s"window 5 unexpectedly better: ${q5.avg} vs ${q3.avg}")
  }

  test("Ablation: dictionary replacement for ER on IM") {
    val b = Bench.bundle(spark, "IM")
    val base = Bench.erScore(spark, b, b.embdiO.model).f1
    // external dictionary on one column pair: country codes ↔ full names
    val repl: Map[String, (String, Double)] =
      b.scenario.dictionary.flatMap { case (code, full) =>
        Seq(code -> (full, 0.5), full -> (code, 0.5))
      }
    val cfg = b.embdiOConfig
    val res = EmbDI.run(b.relations, cfg.copy(walk = cfg.walk.copy(replacements = repl)))
    val withDict = Bench.erScore(spark, b, res.model).f1
    BenchOut.emit("ablation", f"replacement IM ER: base=$base%.3f dict=$withDict%.3f")
    // Report-only tolerance: at bench corpus scale the 0.5-probability
    // replacement injects as much noise as bridging signal on a 90 %-coded
    // column (the paper reports +3 % at 10× our corpus); see EXPERIMENTS.md.
    assert(withDict >= base - 0.2, s"replacement hurt badly: $withDict vs $base")
  }

  test("Ablation: alignment refinement for ER on FZ") {
    val b = Bench.bundle(spark, "FZ")
    val base = Bench.erScore(spark, b, b.embdiO.model)
    // candidate anchors from the first (pooled) execution
    val candidates = EntityResolver.matchRids(spark, b.embdiO.model,
      EntityResolver.ridsIn(b.embdiO.model, b.ridRange1._1, b.ridRange1._2),
      EntityResolver.ridsIn(b.embdiO.model, b.ridRange2._1, b.ridRange2._2))
    // per-relation trainings (each indexes itself as dataset 1), tokenized
    // as the pooled model is
    val cfg = Bench.embdiConfig(Tokenization.Overlap(b.shared))
    val mA = EmbDI.run(Seq(b.relations(0)), cfg).model
    val mB = EmbDI.run(Seq(b.relations(1)), cfg).model
    val tokenAnchors = b.shared.toSeq.sorted
      .filter(t => mA.contains(t) && mB.contains(t)).map(t => (t, t))
    val ridAnchors = candidates.filter { case (r1, r2) => mA.contains(r1) && mB.contains(r2) }
    val aligned = Alignment.align(mA, mB, tokenAnchors ++ ridAnchors)
    val refined = EntityResolver.resolveAndScore(spark, aligned,
      b.ridRange1, b.ridRange2, b.groundTruth, Bench.params.nTop)._2
    BenchOut.emit("ablation",
      f"alignment FZ ER: pooled=${base.f1}%.3f aligned-individual=${refined.f1}%.3f")
    // Report-only: at bench corpus sizes two independently-trained spaces
    // are not isometric enough for Procrustes to recover ER-grade geometry
    // (see EXPERIMENTS.md §Ablations); the unit suite asserts the alignment
    // mechanism itself on controlled inputs.
    assert(refined.f1 >= 0.0 && refined.f1 <= 1.0)
  }

  test("Ablation (Figure 3): missing Year values, Skip vs FD on IM") {
    val b0 = Bench.bundle(spark, "IM")

    def injectNulls(df: DataFrame, col: String, rate: Double, seed: Int): DataFrame =
      df.withColumn(col, when(rand(seed) < rate, lit(null)).otherwise(df(col)))

    def erWith(d1: DataFrame, d2: DataFrame, fd: Boolean): Double = {
      val (e1, e2) =
        if (!fd) (d1, d2) // Skip: NULLs simply vanish from the graph
        else {
          val f1 = NullHandling.skolemizeUnique(
            NullHandling.enforceFd(d1, Seq("title", "director"), "year"), Seq("year"))
          val f2 = NullHandling.skolemizeUnique(
            NullHandling.enforceFd(d2, Seq("name", "directed_by"), "release_year"),
            Seq("release_year"))
          (f1, f2)
        }
      // Each NULL-injected table is read once; EmbDI-O as the bundle
      // configures it, over these tables' shared values and words.
      val Seq(r1, r2) = Seq(e1, e2).map(Relation.read)
      val shared = Tokenization.sharedValues(r1, r2)
      val words = Tokenization.sharedTokens(r1, r2, Tokenization.Flatten)
      val res = EmbDI.run(Seq(r1, r2),
        Bench.pairConfig(Tokenization.Overlap(shared), shared, words))
      // ER under the GT-query protocol of Tables 4 and 5; the NULL
      // injection keeps every RID, so b0's ground truth and ranges apply.
      Bench.erScore(spark, b0, res.model).f1
    }

    Seq(0.10, 0.30).foreach { rate =>
      val d1n = injectNulls(b0.scenario.d1, "year", rate, 71)
      val d2n = injectNulls(b0.scenario.d2, "release_year", rate, 72)
      val skip = erWith(d1n, d2n, fd = false)
      val fd = erWith(d1n, d2n, fd = true)
      BenchOut.emit("ablation",
        f"fig3 IM ER @${(rate * 100).toInt}%2d%% nulls: skip=$skip%.3f fd=$fd%.3f")
      assert(fd >= skip - 0.15, s"FD policy far below Skip at $rate: $fd vs $skip")
    }
  }
}
