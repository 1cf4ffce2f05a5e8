package repro.core

import repro.{SparkJobs, SparkSpec, TestFixtures}

class EmbDISpec extends SparkSpec {

  private lazy val result = TestFixtures.tinyEmbDI
  private lazy val scenario = TestFixtures.tiny

  test("pipeline learns vectors for tokens, RIDs and CIDs") {
    val m = result.model
    assert(m.size > 100)
    assert(m.words.exists(NodeNames.isRid))
    assert(m.words.exists(NodeNames.isCid))
    assert(m.words.exists(NodeNames.isToken))
  }

  test("all CIDs of both datasets are in the vocabulary") {
    val m = result.model
    scenario.columns1.foreach(c => assert(m.contains(NodeNames.cid(1, c)), s"cid 1/$c"))
    scenario.columns2.foreach(c => assert(m.contains(NodeNames.cid(2, c)), s"cid 2/$c"))
  }

  test("most RIDs are in the vocabulary") {
    val m = result.model
    val nRids = m.words.count(NodeNames.isRid)
    val total = scenario.nRows1 + scenario.nRows2
    assert(nRids >= total * 0.95, s"$nRids of $total RIDs embedded")
  }

  test("timings are populated and positive") {
    val t = result.timings
    assert(t.graphMs >= 0 && t.walkMs > 0 && t.trainMs > 0)
  }

  test("sentence count follows the corpus rule") {
    val expectedTokens = RandomWalker.corpusTokensRule(
      result.nDistinctValues, scenario.nRows1 + scenario.nRows2, 300L)
    val expectedWalks = expectedTokens / 20
    // budget allocation rounds down per start node; allow slack
    assert(result.nSentences > expectedWalks / 2 && result.nSentences <= expectedWalks * 2,
      s"${result.nSentences} vs expected ~$expectedWalks")
  }

  test("resolveStrategy fills the Overlap shared set") {
    val st = EmbDI.resolveStrategy(spark, Seq(scenario.d1, scenario.d2),
      Tokenization.Overlap(Set.empty), 4)
    st match {
      case Tokenization.Overlap(s) => assert(s.nonEmpty)
      case other => fail(s"unexpected $other")
    }
  }

  test("resolveStrategy leaves concrete strategies alone") {
    assert(EmbDI.resolveStrategy(spark, Seq(scenario.d1), Tokenization.Simple, 4) ==
      Tokenization.Simple)
  }

  test("duplicate rows end up with similar RID embeddings") {
    val m = result.model
    val pairs = scenario.rowMatches.collect().map(r => (r.getLong(0), r.getLong(1)))
    val matchedCos = pairs.flatMap { case (a, b) =>
      m.cosine(NodeNames.rid(a), NodeNames.rid(b))
    }
    // random rid pairs as background
    val rids = m.words.filter(NodeNames.isRid)
    val rng = new scala.util.Random(3)
    val randomCos = (0 until 200).flatMap { _ =>
      m.cosine(rids(rng.nextInt(rids.length)), rids(rng.nextInt(rids.length)))
    }
    val mAvg = matchedCos.sum / matchedCos.length
    val rAvg = randomCos.sum / randomCos.length
    assert(mAvg > rAvg + 0.15, f"matched avg $mAvg%.3f vs random $rAvg%.3f")
  }

  test("matching columns end up with similar CID embeddings") {
    val m = result.model
    val gtCos = scenario.colMatches.flatMap { case (c1, c2) =>
      m.cosine(NodeNames.cid(1, c1), NodeNames.cid(2, c2))
    }
    val nonGt = for {
      c1 <- scenario.columns1; c2 <- scenario.columns2
      if !scenario.colMatches.contains((c1, c2))
      c <- m.cosine(NodeNames.cid(1, c1), NodeNames.cid(2, c2))
    } yield c
    assert(gtCos.sum / gtCos.size > nonGt.sum / nonGt.size,
      s"gt ${gtCos.sum / gtCos.size} vs non-gt ${nonGt.sum / nonGt.size}")
  }

  test("duplicate __rid across datasets is rejected, naming the ids") {
    import spark.implicits._
    // Two rows with one id would silently merge into one RID node; a row
    // with no id has no RID node at all.
    val d1 = Seq((Some(0L), "a"), (Some(1L), "b"), (None, "d")).toDF("__rid", "x")
    val d2 = Seq((Some(0L), "a"), (Some(7L), "c")).toDF("__rid", "y")
    val e = intercept[IllegalArgumentException](
      EmbDI.run(spark, Seq(d1, d2), TestFixtures.testConfig(Tokenization.Simple)))
    assert(e.getMessage.contains("__rid") && e.getMessage.contains("e.g. 0"), e.getMessage)
    assert(e.getMessage.contains("2 rows repeat an id (or have none)"), e.getMessage)
    val onlyNull = Seq((Some(1L), "b"), (None, "d")).toDF("__rid", "x")
    val e2 = intercept[IllegalArgumentException](
      EmbDI.run(spark, Seq(onlyNull), TestFixtures.testConfig(Tokenization.Simple)))
    assert(e2.getMessage.contains("1 rows repeat an id (or have none)"), e2.getMessage)
  }

  test("EmbDI.run over datasets equals EmbDI.run over their relations") {
    // `result` runs on TestFixtures.tinyRelations with the same configuration.
    val viaFrames = EmbDI.run(spark, Seq(scenario.d1, scenario.d2), TestFixtures.testConfig())
    assert(viaFrames.nSentences == result.nSentences)
    assert(viaFrames.nDistinctValues == result.nDistinctValues)
    assert(viaFrames.graph.numEdges == result.graph.numEdges)
    assert(viaFrames.model.words.sameElements(result.model.words))
    viaFrames.model.vectors.zip(result.model.vectors).foreach { case (a, b) =>
      assert(java.util.Arrays.equals(a, b))
    }
  }

  test("EmbDI.run reads each dataset in one Spark job and shuffles nothing") {
    val counts = SparkJobs.count(spark)(
      EmbDI.run(spark, Seq(scenario.d1, scenario.d2), TestFixtures.testConfig()))
    assert(counts == SparkJobs.Counts(jobs = 2, shuffleWriteBytes = 0L), counts)
  }
}
