package repro.eval

import repro.{SparkSpec, TestFixtures}
import repro.core.{EmbeddingModel, NodeNames, Relation, Tokenization, TripartiteGraph}

class QualityTestsSpec extends SparkSpec {

  private lazy val tok1 = QualityTests.tokenize(TestFixtures.tiny.d1, Tokenization.Flatten)
  private lazy val tok2 = QualityTests.tokenize(TestFixtures.tiny.d2, Tokenization.Flatten)
  private lazy val data = Seq(tok1, tok2)

  test("tokenize builds per-column domains") {
    assert(tok1.columnDomains.keySet == TestFixtures.tiny.columns1.toSet)
    assert(tok1.columnDomains.values.forall(_.nonEmpty))
  }

  test("tokenize builds per-row token lists") {
    assert(tok1.rowTokens.size == TestFixtures.tiny.nRows1)
    assert(tok1.rowTokens.forall(_.forall(_.nonEmpty)))
  }

  test("MA tests: intruder comes from a different attribute domain") {
    val tests = QualityTests.matchAttribute(data, 50, 1L)
    assert(tests.size == 50)
    tests.foreach { t =>
      assert(t.kind == "MA")
      assert(t.tokens.size == 4)
      assert(t.tokens.distinct.size == 4)
      assert(!t.tokens.contains(t.intruder))
    }
  }

  test("MR tests: intruder not among the row's tokens") {
    val tests = QualityTests.matchRow(data, 50, 2L)
    assert(tests.size == 50)
    tests.foreach { t =>
      assert(t.kind == "MR")
      assert(!t.tokens.contains(t.intruder))
      assert(t.tokens.nonEmpty)
    }
  }

  test("MC tests: three in-group tokens plus one out-of-group") {
    val tests = QualityTests.matchConcept(data,
      oneCols = Set("manufacturer", "brand"), manyCols = Set("title", "name"),
      Tokenization.Flatten, 30, 3L)
    assert(tests.nonEmpty)
    tests.foreach { t =>
      assert(t.kind == "MC")
      assert(t.tokens.size == 3)
      assert(!t.tokens.contains(t.intruder))
    }
  }

  test("MC tokens of a title cell idx__5 are named as the graph names them") {
    import spark.implicits._
    val df = Seq((0L, "Acme", "idx__5"), (1L, "Acme", "Foo Bar"), (2L, "Acme", "baz"),
      (3L, "Zeta", "alpha beta"), (4L, "Zeta", "gamma"), (5L, "Zeta", "delta"))
      .toDF("__rid", "maker", "title")
    val rel = Relation.read(df)
    Seq(Tokenization.Simple, Tokenization.Overlap(Set("tok__idx__5"))).foreach { st =>
      val tests = QualityTests.matchConcept(Seq(QualityTests.tokenize(rel, st)),
        Set("maker"), Set("title"), st, 20, 5L)
      val names = tests.flatMap(t => t.tokens :+ t.intruder).toSet
      assert(names.contains("tok__idx__5"), s"$st: ${names.mkString(", ")}")
      val graphTokens = TripartiteGraph.build(Seq(rel), st).names.filter(NodeNames.isToken).toSet
      assert(names.subsetOf(graphTokens), s"$st: ${names.diff(graphTokens).mkString(", ")}")
    }
  }

  test("test generation is deterministic in the seed") {
    val a = QualityTests.matchAttribute(data, 20, 7L)
    val b = QualityTests.matchAttribute(data, 20, 7L)
    assert(a == b)
  }

  test("an oracle model passes every test it can represent") {
    val tests = QualityTests.matchAttribute(data, 20, 4L)
    // oracle: intruders get an orthogonal direction. A token can be a member
    // in one test and the intruder of another; only tests with disjoint
    // roles are representable by a single vector per token.
    val intruders = tests.map(_.intruder).toSet
    val clean = tests.filter(t => t.tokens.forall(!intruders(_)))
    assert(clean.nonEmpty)
    val vocab = clean.flatMap(t => t.tokens :+ t.intruder).distinct
    val good = EmbeddingModel(vocab.map { w =>
      if (intruders(w)) w -> Array(0f, 1f, sketch(w)) else w -> Array(1f, 0f, sketch(w) * 0.01f)
    })
    assert(QualityTests.evaluate(good, clean).exists(_ > 0.9))
  }

  test("evaluate counts unknown intruders as failures") {
    val tests = Seq(QualityTests.QTest("MA", Seq("a", "b", "c", "d"), "zzz"))
    val m = EmbeddingModel(Seq("a" -> Array(1f, 0f), "b" -> Array(1f, 0.1f),
      "c" -> Array(1f, -0.1f), "d" -> Array(0.9f, 0f)))
    assert(QualityTests.evaluate(m, tests).contains(0.0))
  }

  test("evaluate of an empty test set is not applicable") {
    val m = EmbeddingModel(Seq("a" -> Array(1f)))
    assert(QualityTests.evaluate(m, Seq.empty).isEmpty)
    // FZ has no maker column, hence no MC test: AVG is the MA/MR mean.
    val fz = Bench.QualityScores(Some(0.75), Some(0.25), None)
    assert(fz.avg == 0.5)
    assert(fz.render == "MA=0.75 MR=0.25 MC=n.a. AVG=0.50")
  }

  private def sketch(w: String): Float = (w.hashCode % 97) / 970f
}
