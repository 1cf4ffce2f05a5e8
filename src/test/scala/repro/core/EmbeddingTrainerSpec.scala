package repro.core

import java.util.concurrent.ForkJoinPool

import scala.collection.mutable
import scala.util.Random
import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestFixtures}
import repro.integration.{EntityResolver, Metrics, SchemaMatcher}

class EmbeddingTrainerSpec extends SparkSpec {
  import EmbeddingTrainer._

  private def corpusOf(sentences: Seq[Seq[String]]): Array[Array[String]] =
    sentences.map(_.toArray).toArray

  private def frameOf(corpus: Array[Array[String]]): DataFrame = {
    import spark.implicits._
    corpus.toSeq.toDF("sentence")
  }

  private def encode(sentences: Seq[Seq[String]], minCount: Int): Encoded =
    Encoded(sentences.iterator, minCount)

  private def vectors(m: EmbeddingModel): Seq[(String, Seq[Float])] =
    m.words.toSeq.zip(m.vectors.map(_.toSeq))

  /** Cost Σ count·depth of an optimal prefix code, by the textbook
    * priority-queue Huffman construction. */
  private def pqHuffmanCost(counts: Seq[Long]): Long = {
    val pq = mutable.PriorityQueue(counts: _*)(Ordering[Long].reverse)
    var cost = 0L
    while (pq.size > 1) {
      val s = pq.dequeue() + pq.dequeue()
      cost += s
      pq.enqueue(s)
    }
    cost
  }

  test("Huffman codes are prefix-free, optimal and address inner nodes 0..V-2") {
    val rng = new Random(11L)
    (1 to 60).foreach { trial =>
      val v = 1 + rng.nextInt(if (trial % 3 == 0) 400 else 30)
      // Few distinct counts, so most counts tie.
      val counts = Array.fill(v)(1L + rng.nextInt(1 + rng.nextInt(6))).sorted(Ordering[Long].reverse)
      val t = HuffmanTree(counts)
      val codes = (0 until v).map { w =>
        (0 until t.codeLen(w)).map(d => t.codes(t.offsets(w) + d)).mkString
      }
      if (v == 1) assert(codes == Seq(""))
      else {
        assert(codes.toSet.size == v, s"V=$v: duplicate codes")
        val sorted = codes.sorted
        sorted.zip(sorted.tail).foreach { case (a, b) =>
          assert(!b.startsWith(a), s"V=$v: $a is a prefix of $b")
        }
        (0 until v).foreach { w =>
          val pts = (0 until t.codeLen(w)).map(d => t.points(t.offsets(w) + d))
          assert(pts.head == v - 2, s"V=$v: path of $w does not start at the root")
          assert(pts.forall(p => p >= 0 && p <= v - 2), s"V=$v: points $pts")
          assert(pts.distinct.size == pts.size, s"V=$v: path of $w repeats a node")
        }
      }
      val cost = (0 until v).map(w => counts(w) * t.codeLen(w)).sum
      assert(cost == pqHuffmanCost(counts.toSeq), s"V=$v counts=${counts.toSeq}")
    }
  }

  test("words of equal count are ordered by a fixed hash of the word, not by name") {
    val tied = (0 until 20).map(i => s"w$i")
    val enc = encode(Seq(Seq("top", "top", "top") ++ tied, tied, Seq("rare")), minCount = 2)
    assert(enc.words.head == "top" && enc.counts.toSeq == 3L +: Seq.fill(20)(2L))
    val rest = enc.words.toSeq.tail
    assert(rest == tied.sortBy(w => Rand.mix64(MurmurHash3.stringHash(w).toLong)))
    assert(rest != tied.sorted)
  }

  test("encoding drops words below minCount, splits at 1000 words and omits empty sentences") {
    val long = Seq.fill(2500)("a")
    val enc = encode(Seq(Seq("y"), long, Seq("a", "z", "b", "b")), minCount = 2)
    assert(enc.words.toSeq == Seq("a", "b"))
    assert(enc.ends.toSeq == Seq(1000, 2000, 2500, 2503))
    assert(enc.tokens.drop(2500).toSeq == Seq(0, 1, 1))
  }

  private lazy val tinyCorpus: Array[Array[String]] = RandomWalker.sentences(
    TestFixtures.tinyEmbDI.graph, TestFixtures.testConfig().walk.copy(corpusTokens = 40000L))

  test("training repeats bit for bit at a fixed seed") {
    val cfg = W2VConfig(dim = 16, minCount = 1, seed = 3L)
    val a = vectors(train(tinyCorpus, cfg))
    assert(a.nonEmpty)
    assert(vectors(train(tinyCorpus, cfg)) == a)
    assert(vectors(train(tinyCorpus, cfg.copy(seed = 4L))) != a)
  }

  /** Two groups of ten words; each sentence draws 20 words from one group. */
  private lazy val groupCorpus: Array[Array[String]] = {
    val groups = Seq((0 until 10).map(i => s"a$i"), (0 until 10).map(i => s"b$i"))
    val rng = new Random(5L)
    corpusOf((0 until 1000).map { s =>
      val g = groups(s % 2)
      Seq.fill(20)(g(rng.nextInt(g.size)))
    })
  }

  test("one shard equals the sequential reference loop bit for bit") {
    val cfg = W2VConfig(dim = 16, minCount = 1, seed = 3L)
    val one = vectors(train(tinyCorpus, cfg, shards = 1))
    assert(one == vectors(ReferenceSkipGram.train(tinyCorpus, cfg)))
    assert(vectors(train(tinyCorpus, cfg)) != one, "the default trainer runs one shard")
    // Two epochs: the rate restarts at StepSize for the second one.
    val twice = cfg.copy(maxIter = 2)
    assert(vectors(train(groupCorpus, twice, shards = 1)) ==
      vectors(ReferenceSkipGram.train(groupCorpus, twice)))
  }

  test("a model does not depend on the parallelism of the pool that trains it") {
    val cfg = W2VConfig(dim = 16, minCount = 1, seed = 3L)
    val models = Seq(1, 2, 4).map { n =>
      val pool = new ForkJoinPool(n)
      try vectors(pool.submit(() => train(tinyCorpus, cfg)).get())
      finally pool.shutdown()
    }
    assert(models.distinct.size == 1)
  }

  test("the DataFrame adapters equal the array path exactly") {
    val walkCfg = TestFixtures.testConfig().walk.copy(corpusTokens = 40000L)
    val frame = RandomWalker.corpus(spark, TestFixtures.tinyEmbDI.graph, walkCfg)
    assert(frame.collect().map(_.getSeq[String](0)).toSeq == tinyCorpus.map(_.toSeq).toSeq)
    val cfg = W2VConfig(dim = 16, minCount = 1, seed = 3L)
    val a = vectors(train(tinyCorpus, cfg))
    assert(vectors(train(frame, cfg)) == a)
    assert(vectors(train(frameOf(tinyCorpus).coalesce(1), cfg)) == a)
  }

  test("an empty vocabulary is rejected naming minCount") {
    val empty = intercept[IllegalArgumentException](
      train(corpusOf(Seq.empty), W2VConfig(minCount = 1)))
    assert(empty.getMessage.contains("minCount"))
    val rare = intercept[IllegalArgumentException](
      train(corpusOf(Seq(Seq("a", "b"), Seq("c"))), W2VConfig(minCount = 2)))
    assert(rare.getMessage.contains("minCount"))
  }

  test("words that co-occur end up closer than words that never do") {
    val groups = Seq((0 until 10).map(i => s"a$i"), (0 until 10).map(i => s"b$i"))
    val m = train(groupCorpus, W2VConfig(dim = 16, minCount = 1, maxIter = 2, seed = 1L))
    def meanCos(pairs: Seq[(String, String)]): Double =
      pairs.map { case (x, y) => m.cosine(x, y).get }.sum / pairs.size
    val within = for (g <- groups; x <- g; y <- g if x < y) yield (x, y)
    val across = for (x <- groups(0); y <- groups(1)) yield (x, y)
    val (w, c) = (meanCos(within), meanCos(across))
    assert(w > c, s"within-group cosine $w <= across-group cosine $c")
  }

  test("ER and SM on the tiny scenario are as good as with MLlib's Word2Vec") {
    val sc = TestFixtures.tiny
    val res = TestFixtures.tinyEmbDI
    val base = TestFixtures.testConfig()
    val tokens = RandomWalker.corpusTokensRule(res.nDistinctValues,
      sc.nRows1 + sc.nRows2, base.corpusFactor)
    val n1 = sc.nRows1
    val gt = sc.rowMatches.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    def scores(m: EmbeddingModel): (Double, Double) = {
      val er = EntityResolver.resolveAndScore(spark, m, (0L, n1), (n1, n1 + sc.nRows2), gt,
        nTop = 10)._2.f1
      val sm = Metrics.prf(SchemaMatcher.toColumnPairs(SchemaMatcher.matchCids(m,
        sc.columns1.map(NodeNames.cid(1, _)), sc.columns2.map(NodeNames.cid(2, _)))).toSet,
        sc.colMatches.toSet).f1
      (er, sm)
    }
    val runs = (0L to 4L).map { seed =>
      val corpus = RandomWalker.sentences(res.graph, base.walk.copy(corpusTokens = tokens, seed = seed))
      val cfg = base.w2v.copy(seed = seed)
      (scores(train(corpus, cfg)), scores(ReferenceWord2Vec.train(frameOf(corpus), cfg)))
    }
    def mean(xs: Seq[Double]): Double = xs.sum / xs.size
    val (ours, mllib) = runs.unzip
    val (erOurs, smOurs) = (mean(ours.map(_._1)), mean(ours.map(_._2)))
    val (erRef, smRef) = (mean(mllib.map(_._1)), mean(mllib.map(_._2)))
    info(f"ER F1 $erOurs%.3f (MLlib $erRef%.3f), SM F1 $smOurs%.3f (MLlib $smRef%.3f), " +
      s"per seed ours=$ours mllib=$mllib")
    assert(erOurs >= erRef - 0.05, s"ER F1 $erOurs vs MLlib $erRef")
    assert(smOurs >= smRef - 0.05, s"SM F1 $smOurs vs MLlib $smRef")
  }
}
