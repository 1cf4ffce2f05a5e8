package repro

import repro.core._
import repro.integration.{EntityResolver, Metrics, SchemaMatcher, TokenMatcher}

/** End-to-end: EmbDI embeddings driving the paper's unsupervised tasks on
  * the tiny scenario. Thresholds are deliberately loose — these guard the
  * wiring, the bench suites measure quality properly.
  */
class IntegrationE2ESpec extends SparkSpec {

  private lazy val sc = TestFixtures.tiny
  private lazy val Seq(r1, r2) = TestFixtures.tinyRelations
  private lazy val model = TestFixtures.tinyEmbDI.model

  test("unsupervised SM (Algorithm 5) recovers most column matches") {
    val cids1 = sc.columns1.map(NodeNames.cid(1, _))
    val cids2 = sc.columns2.map(NodeNames.cid(2, _))
    val got = SchemaMatcher.toColumnPairs(SchemaMatcher.matchCids(model, cids1, cids2)).toSet
    val prf = Metrics.prf(got, sc.colMatches.toSet)
    assert(prf.f1 >= 0.6, s"SM F=${prf.f1}, got=$got, gt=${sc.colMatches}")
  }

  test("unsupervised ER (Algorithm 6) beats chance comfortably") {
    val n1 = sc.nRows1
    val gt = sc.rowMatches.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val (_, prf) = EntityResolver.resolveAndScore(spark, model,
      (0L, n1), (n1, n1 + sc.nRows2), gt, nTop = 10)
    assert(prf.f1 > 0.3, s"ER F=${prf.f1}")
  }

  test("ER with pre-trained stand-in is worse than EmbDI (Table 4 shape)") {
    val pre = baselines.PretrainedEmbeddings.forDatasets(Seq(r1, r2), Tokenization.Flatten)
    val n1 = sc.nRows1
    val gt = sc.rowMatches.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val fPre = EntityResolver.resolveAndScore(spark, pre, (0L, n1), (n1, n1 + sc.nRows2), gt)._2.f1
    val fEmb = EntityResolver.resolveAndScore(spark, model, (0L, n1), (n1, n1 + sc.nRows2), gt)._2.f1
    // At unit-test corpus sizes EmbDI's advantage is within noise of the
    // string-overlap signal; require it to be at least competitive. The
    // bench reproduces the full Table 4 ordering at bench corpus sizes.
    assert(fEmb >= fPre - 0.10, s"EmbDI $fEmb ≪ pretrained $fPre")
    assert(fEmb > 0.4, s"EmbDI ER F=$fEmb")
  }

  test("token matching finds country code synonyms better than trigram Jaccard") {
    val (c1, c2) = ("country", "country_code")
    val dom1 = TokenMatcher.domain(r1, c1)
    val dom2 = TokenMatcher.domain(r2, c2)
    val gt = sc.tokenMatchGt((c1, c2)).filter { case (full, code) =>
      dom1.contains(full) && dom2.contains(code)
    }
    val emb = TokenMatcher.score(
      TokenMatcher.matchByEmbedding(model, dom1, dom2).filter(p => gt.map(_._1).contains(p._1)),
      gt)
    val jac = TokenMatcher.score(
      TokenMatcher.matchByJaccard(dom1, dom2).filter(p => gt.map(_._1).contains(p._1)),
      gt)
    assert(emb.f1 >= jac.f1, s"embedding ${emb.f1} < jaccard ${jac.f1}")
    assert(emb.f1 > 0.05, s"embedding TM F=${emb.f1}") // paper's own IM numbers are ~0.31
  }

  test("alignment pulls independently-trained spaces together (§5.4)") {
    // Train per-dataset models, align on token + candidate-CID anchors,
    // and verify the rotation moves ground-truth CID pairs closer — the
    // property the §7.3 alignment refinement exploits.
    val cfgA = TestFixtures.testConfig(Tokenization.Flatten)
    val mA = EmbDI.run(Seq(r1), cfgA).model
    val mB = EmbDI.run(Seq(r2), cfgA).model
    // Anchor on shared tokens only; ground-truth CID pairs stay out of the
    // anchor set so they can serve as the measurement. NB: a model trained
    // on d2 alone indexes it as dataset 1, so its CIDs are cid(1, <d2 col>);
    // column names are disjoint across the two views.
    val tokenAnchors = TestFixtures.tinyShared.toSeq.sorted
      .filter(t => mA.contains(t) && mB.contains(t)).map(t => (t, t))
    val aligned = Alignment.align(mA, mB, tokenAnchors)
    def gtCos(lookupA: String => Option[Array[Float]],
              lookupB: String => Option[Array[Float]]): Double = {
      val cs = sc.colMatches.flatMap { case (a, b) =>
        for (va <- lookupA(NodeNames.cid(1, a)); vb <- lookupB(NodeNames.cid(1, b)))
          yield EmbeddingModel.dot(va, vb)
      }
      assert(cs.nonEmpty, "no ground-truth CID pair present in both spaces")
      cs.sum / cs.size
    }
    val before = gtCos(mA.vector, mB.vector)       // independent spaces: noise
    val after  = gtCos(aligned.vector, aligned.vector)
    assert(after > before, s"alignment did not help: before=$before after=$after")
    assert(after > 0.1, s"aligned gt CID cosine $after")
  }
}
