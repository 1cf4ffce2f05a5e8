package repro.integration

import repro.{SparkSpec, TestFixtures}
import repro.core.{EmbeddingModel, NodeNames}

import scala.util.Random

/** The mutual-matching engine of Algorithms 5 and 6 against the map-probing
  * loop it replaced ([[ReferenceMatching]]): identical output sequences. */
class MatchingEngineSpec extends SparkSpec {

  /** A seeded similarity table over a shuffled left × right: |L| ≠ |R| in
    * general, either side possibly empty, a few score levels (exact ties),
    * pairs missing at random (short or empty candidate lists) and entries
    * naming elements outside left/right, which are never candidates. */
  private def randomCase(seed: Long): (Seq[String], Seq[String], Map[(String, String), Double]) = {
    val rng = new Random(seed)
    val left = rng.shuffle((0 until rng.nextInt(12)).map(i => s"l$i"))
    val right = rng.shuffle((0 until rng.nextInt(12)).map(i => s"r$i"))
    val density = Seq(0.2, 0.5, 0.8, 1.0)(rng.nextInt(4))
    val levels = 1 + rng.nextInt(5)
    val sims = for (a <- left; b <- right if rng.nextDouble() < density)
      yield (a, b) -> rng.nextInt(levels).toDouble / levels
    (left, right, sims.toMap ++ Map(("l99", "r0") -> 1.0, ("l0", "r99") -> 1.0))
  }

  /** Ranked int lists built directly from the table: entries by score
    * descending, ties by position on the other side, capped. */
  private def ranked(sims: Map[(String, String), Double], from: Seq[String], to: Seq[String],
                     score: (String, String) => Option[Double], cap: Int): Array[Array[Int]] =
    from.map(a => to.indices.flatMap(j => score(a, to(j)).map(j -> _))
      .sortBy(-_._2).take(cap).map(_._1).toArray).toArray

  test("ranked-list loop and map adapter reproduce the map-probing loop") {
    var matched, partial = 0
    for (seed <- 0L until 200L; cap <- Seq(1, 3, 10, Int.MaxValue); iters <- Seq(1, 2, 10)) {
      val (left, right, sims) = randomCase(seed)
      val want = ReferenceMatching.mutualMatch(sims, left, right, iters, cap)
      val ctx = s"seed=$seed cap=$cap iters=$iters"
      assert(SchemaMatcher.mutualMatch(sims, left, right, iters, cap) == want, ctx)
      val l2r = ranked(sims, left, right, (a, b) => sims.get((a, b)), cap)
      val r2l = ranked(sims, right, left, (b, a) => sims.get((a, b)), cap)
      assert(SchemaMatcher.mutualMatch(l2r, r2l, iters).map { case (a, b) => (left(a), right(b)) }
        == want, ctx)
      matched += want.size
      if (want.size < math.min(left.size, right.size)) partial += 1
    }
    // The cases exercise both matching and exhausted/unmatched elements.
    assert(matched > 1000 && partial > 100, s"matched=$matched partial=$partial")
  }

  test("matchRids on the tiny EmbDI model equals Spark top-k + map-loop composition") {
    val model = TestFixtures.tinyEmbDI.model
    val (n1, n2) = (TestFixtures.tiny.nRows1, TestFixtures.tiny.nRows2)
    val rids1 = EntityResolver.ridsIn(model, 0, n1)
    val rids2 = EntityResolver.ridsIn(model, n1, n1 + n2)
    assert(rids1.size > 10 && rids2.size > 10)
    // All rows, and a skinny query side as in the GT-query protocol.
    for (queries <- Seq(rids1, rids1.filter(_.hashCode % 3 == 0)); nTop <- Seq(1, 3, 10, 100)) {
      val got = EntityResolver.matchRids(spark, model, queries, rids2, nTop)
      assert(got.nonEmpty)
      assert(got == ReferenceMatching.matchRids(spark, model, queries, rids2, nTop),
        s"|queries|=${queries.size} nTop=$nTop")
    }
  }

  test("matchCids on the tiny EmbDI model equals the full-table map loop") {
    val model = TestFixtures.tinyEmbDI.model
    val cids1 = TestFixtures.tiny.columns1.map(NodeNames.cid(1, _))
    val cids2 = TestFixtures.tiny.columns2.map(NodeNames.cid(2, _))
    for (iters <- Seq(1, 2, 10)) {
      val got = SchemaMatcher.matchCids(model, cids1, cids2, iters)
      assert(got.nonEmpty)
      assert(got == ReferenceMatching.matchCids(model, cids1, cids2, iters), s"iters=$iters")
    }
  }

  test("token matching on the kernel equals the per-query sort it replaced") {
    var matched, tied = 0
    for (seed <- 0L until 400L) {
      val rng = new Random(seed)
      val vocab = (0 until 1 + rng.nextInt(12)).map(i => s"t$i")
      // Some tokens have no vector; integer coordinates in [-2, 2] make
      // equal vectors and exact score ties common.
      val dim = 1 + rng.nextInt(3)
      val model = EmbeddingModel(vocab.filter(_ => rng.nextDouble() < 0.8)
        .map(_ -> Array.fill(dim)((rng.nextInt(5) - 2).toFloat)))
      // Draws with replacement from one vocabulary: duplicates within a
      // domain and tokens in both domains.
      def domain() = Seq.fill(rng.nextInt(10))(vocab(rng.nextInt(vocab.size)))
      val (dom1, dom2) = (domain(), domain())
      val want = ReferenceMatching.matchByEmbedding(model, dom1, dom2)
      assert(TokenMatcher.matchByEmbedding(model, dom1, dom2) == want,
        s"seed=$seed dom1=$dom1 dom2=$dom2")
      matched += want.size
      tied += dom1.count { t =>
        val all = ReferenceMatching.nearestToWord(model, t, dom2.distinct.filterNot(_ == t), dom2.size)
        all.size > 1 && all(0)._2 == all(1)._2
      }
    }
    assert(matched > 500 && tied > 100, s"matched=$matched tied=$tied")
  }

  test("duplicate names are rejected, not collapsed") {
    val sims = Map(("a", "x") -> 1.0, ("b", "x") -> 0.5)
    val e = intercept[IllegalArgumentException](
      SchemaMatcher.mutualMatch(sims, Seq("a", "b", "a"), Seq("x"), 2, 10))
    assert(e.getMessage.contains("left names must be distinct; repeated: a"))
    intercept[IllegalArgumentException](
      SchemaMatcher.mutualMatch(sims, Seq("a", "b"), Seq("x", "x"), 2, 10))
    val m = EmbeddingModel(Seq(NodeNames.rid(0) -> Array(1f, 0f), NodeNames.rid(1) -> Array(0f, 1f)))
    val r = intercept[IllegalArgumentException](EntityResolver.matchRids(spark, m,
      Seq(NodeNames.rid(0), NodeNames.rid(0)), Seq(NodeNames.rid(1))))
    assert(r.getMessage.contains(s"left names must be distinct; repeated: ${NodeNames.rid(0)}"))
    intercept[IllegalArgumentException](SchemaMatcher.matchCids(m,
      Seq(NodeNames.rid(0)), Seq(NodeNames.rid(1), NodeNames.rid(1))))
  }
}
