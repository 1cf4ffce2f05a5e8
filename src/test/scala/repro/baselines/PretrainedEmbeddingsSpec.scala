package repro.baselines

import repro.{SparkSpec, TestFixtures}
import repro.core.{EmbeddingModel, NodeNames, Tokenization}

class PretrainedEmbeddingsSpec extends SparkSpec {

  test("token vectors are deterministic") {
    val a = PretrainedEmbeddings.tokenVector("photoshop")
    val b = PretrainedEmbeddings.tokenVector("photoshop")
    assert(a.sameElements(b))
  }

  test("vectors are unit length") {
    val v = PretrainedEmbeddings.tokenVector("anything")
    assert(math.abs(EmbeddingModel.dot(v, v) - 1.0) < 1e-5)
  }

  test("string-similar tokens are closer than dissimilar ones (subword sharing)") {
    val a = PretrainedEmbeddings.tokenVector("photoshop")
    val b = PretrainedEmbeddings.tokenVector("photoshopcs")
    val c = PretrainedEmbeddings.tokenVector("zebra")
    assert(EmbeddingModel.dot(a, b) > EmbeddingModel.dot(a, c) + 0.2)
  }

  test("no dataset co-occurrence knowledge: unrelated same-row tokens are far") {
    // 'paul' and 'ipad' co-occur in the Figure 1 data but a pre-trained
    // space cannot know that.
    val a = PretrainedEmbeddings.tokenVector("paul")
    val b = PretrainedEmbeddings.tokenVector("ipad")
    assert(EmbeddingModel.dot(a, b) < 0.5)
  }

  test("multi-word tokens average their word vectors") {
    val joint = PretrainedEmbeddings.tokenVector("saving_private_ryan")
    val w1 = PretrainedEmbeddings.tokenVector("saving")
    assert(EmbeddingModel.dot(joint, w1) > 0.3)
  }

  test("never out-of-vocabulary") {
    val v = PretrainedEmbeddings.tokenVector("zzzzqqqq12345")
    assert(v.exists(_ != 0f))
  }

  test("forDatasets composes RID and CID vectors") {
    val m = PretrainedEmbeddings.forDatasets(TestFixtures.tinyRelations, Tokenization.Flatten)
    assert(m.words.exists(NodeNames.isRid))
    assert(m.words.exists(NodeNames.isCid))
    TestFixtures.tiny.columns1.foreach(c => assert(m.contains(NodeNames.cid(1, c))))
    // RID vector is the average of its tokens: cosine with a token of the
    // row should be positive.
    val row = TestFixtures.tiny.d1.collect().head
    val rid = NodeNames.rid(row.getLong(0))
    assert(m.contains(rid))
  }
}
