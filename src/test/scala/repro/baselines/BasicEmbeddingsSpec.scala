package repro.baselines

import repro.{SparkSpec, TestFixtures}
import repro.core.{EmbeddingTrainer, NodeNames, Tokenization}

class BasicEmbeddingsSpec extends SparkSpec {

  private lazy val model = EmbeddingTrainer.train(
    BasicEmbeddings.corpus(TestFixtures.tinyRelations,
      BasicEmbeddings.Config(corpusTokens = 150000, strategy = Tokenization.Flatten)),
    EmbeddingTrainer.W2VConfig(dim = 32, minCount = 1))

  test("Basic learns token vectors") {
    assert(model.words.count(NodeNames.isToken) > 50)
  }

  test("Basic learns RID vectors (structure aware)") {
    assert(model.words.count(NodeNames.isRid) > TestFixtures.tiny.nRows1 / 2)
  }

  test("Basic learns CID vectors") {
    assert(model.words.exists(NodeNames.isCid))
  }

  test("a RID is closer to its own row's tokens than to random tokens") {
    // Basic's row sentences put the RID next to its row tokens; its
    // attribute sentences dominate token-token geometry (the paper's
    // high-MA / low-MR signature), so the structural check lives on RIDs.
    val rows = TestFixtures.tiny.d1.collect()
    val cols = TestFixtures.tiny.columns1
    val rng = new scala.util.Random(1)
    val own = rows.take(120).flatMap { r =>
      val rid = NodeNames.rid(r.getLong(0))
      val toks = cols.flatMap(c => Option(r.getAs[Any](c)).toSeq
        .flatMap(v => Tokenization.normalize(v.toString))
        .flatMap(Tokenization.tokens(_, Tokenization.Flatten))).distinct
      toks.flatMap(t => model.cosine(rid, t))
    }
    val toks = model.words.filter(NodeNames.isToken)
    val rids = model.words.filter(NodeNames.isRid)
    val rand = (0 until 800).flatMap { _ =>
      model.cosine(rids(rng.nextInt(rids.length)), toks(rng.nextInt(toks.length)))
    }
    val oAvg = own.sum / own.length
    val rAvg = rand.sum / rand.length
    assert(oAvg > rAvg, f"own $oAvg%.3f vs random $rAvg%.3f")
  }
}
