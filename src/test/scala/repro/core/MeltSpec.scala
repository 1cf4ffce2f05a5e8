package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.{SparkPlan, UnionExec}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types._
import repro.{SparkJobs, SparkSpec, TestFixtures}

/** The one-job [[Relation]] read behind [[Tokenization]] and
  * [[TripartiteGraph]]: the same sets as a per-column `select` + `union` melt
  * (kept here as the reference), and one job and one scan per input.
  */
class MeltSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private val schema = StructType(Seq(
    StructField("__rid", LongType, nullable = false),
    StructField("name", StringType),
    StructField("year", IntegerType),
    StructField("score", DoubleType),
  ))

  private def frame(rows: Row*): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)

  // String, Int and Double columns; NULL and blank cells; an all-NULL row;
  // numeric strings and doubles that round (some cast to "1.2345678E7" form).
  private lazy val d1 = frame(
    Row(0L, "iPad 4th", 2012, 3.14159),
    Row(1L, "   ", null, 1.2345678e7),
    Row(2L, null, null, null),
    Row(3L, "Galaxy", 42, 1.0e-4),
    Row(4L, "123456", 7, -0.5),
  )
  private lazy val d2 = frame(
    Row(10L, "ipad  4TH", 2012, 3.1416),
    Row(11L, "3.14159", 42, 12345000.0),
    Row(12L, "", 123456, null),
    Row(13L, "Galaxy Tab", null, 0.0001),
  )

  private val strategies: Seq[Tokenization.Strategy] = Seq(Tokenization.Simple,
    Tokenization.Flatten, Tokenization.Overlap(Set("ipad_4th", "galaxy", "3.142")))

  // ------------------------------------------------ per-column reference melt

  /** (rid, column, raw value) with one `select` per column. */
  private def referenceMelt(df: DataFrame): DataFrame =
    df.columns.filterNot(_ == "__rid").map { c =>
      df.select(col("__rid").cast("long").as("rid"), lit(c).as("col"), col(c).cast("string").as("value"))
    }.reduce(_ union _)

  private def referenceEdges(datasets: Seq[DataFrame], st: Tokenization.Strategy): Set[(String, String)] = {
    import spark.implicits._
    datasets.zipWithIndex.map { case (df, i) =>
      referenceMelt(df).as[(Long, String, String)].flatMap { case (rid, c, v) =>
        Tokenization.normalize(v).toSeq.flatMap(Tokenization.tokens(_, st))
          .flatMap(t => Seq((t, NodeNames.rid(rid)), (t, NodeNames.cid(i + 1, c))))
      }.toDF("src", "dst")
    }.reduce(_ union _).distinct().as[(String, String)].collect().toSet
  }

  private def referenceValues(df: DataFrame): DataFrame = {
    import spark.implicits._
    referenceMelt(df).select("value").as[String].flatMap(v => Tokenization.normalize(v)).toDF("value").distinct()
  }

  private def referenceTokens(df: DataFrame, st: Tokenization.Strategy): Set[String] = {
    import spark.implicits._
    referenceMelt(df).select("value").as[String]
      .flatMap(v => Tokenization.normalize(v).toSeq.flatMap(Tokenization.tokens(_, st))).collect().toSet
  }

  private def strings(df: DataFrame): Set[String] = df.collect().map(_.getString(0)).toSet

  // ------------------------------------------------------------- equivalence

  test("edges equal the per-column reference under every strategy") {
    import spark.implicits._
    strategies.foreach { st =>
      val got = TripartiteGraph.edges(spark, Seq(d1, d2), st).as[(String, String)].collect()
      assert(got.length == got.distinct.length, s"$st: duplicate edges")
      assert(got.toSet == referenceEdges(Seq(d1, d2), st), s"$st")
    }
  }

  test("distinctValues, sharedValues and sharedTokens equal the per-column reference") {
    Seq(d1, d2).foreach(d => assert(strings(Tokenization.distinctValues(spark, d)) == strings(referenceValues(d))))
    assert(Tokenization.sharedValues(spark, d1, d2) ==
      strings(referenceValues(d1)).intersect(strings(referenceValues(d2))))
    assert(Tokenization.sharedValues(spark, d1, d2) == Set("ipad_4th", "3.142", "2012", "42", "123500", "12350000", "0.0001"))
    strategies.foreach { st =>
      assert(Tokenization.sharedTokens(spark, d1, d2, st) == referenceTokens(d1, st).intersect(referenceTokens(d2, st)), s"$st")
    }
  }

  test("EmbDI.run counts distinct values as the per-dataset distinct/union/distinct did") {
    val tiny = TestFixtures.tiny
    val expected = Seq(tiny.d1, tiny.d2).map(referenceValues).reduce(_ union _).distinct().count()
    assert(TestFixtures.tinyEmbDI.nDistinctValues == expected)
  }

  test("Relation.read stores cells in normal form, NULL and blank ones as null") {
    import spark.implicits._
    val df = Seq((Some(0L), " iPad  4TH ", "1.2345678E7"), (Some(1L), "   ", null), (None, "x", "y"))
      .toDF("__rid", "name", "score")
    val rel = Relation.read(df)
    assert(rel.cells.map(_.toSeq).toSeq == Seq(Seq("ipad_4th", "12350000"), Seq(null, null)))
    assert(rel.rids.toSeq == Seq(0L, 1L))
    assert(rel.nullRids == 1)
    val blankAndNull = Relation.read(d1)
    assert(blankAndNull.cells(1).toSeq == Seq(null, null, "12350000"))
    assert(blankAndNull.cells(2).forall(_ == null))
    assert(blankAndNull.nullRids == 0)
  }

  test("the corpus-size rule counts the all-NULL row in #rows") {
    // The all-NULL row has no RID node, but it is still a row of the input.
    val cfg0 = EmbDI.Config(strategy = Tokenization.Simple,
      walk = RandomWalker.WalkConfig(walkLength = 5, seed = 3L),
      w2v = EmbeddingTrainer.W2VConfig(dim = 4, minCount = 1, seed = 3L))
    val graph = CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(d1), Tokenization.Simple))
    assert(!graph.index.contains(NodeNames.rid(2)))
    val starts = RandomWalker.startNodes(graph, cfg0.walk.startStrategy).length
    // factor = walkLength · #starts ⇒ walks per start node = #distinct + #rows.
    val res = EmbDI.run(spark, Seq(d1), cfg0.copy(corpusFactor = 5L * starts))
    assert(res.nSentences == starts.toLong * (res.nDistinctValues + 5L))
  }

  // -------------------------------------------------------------- plan shape

  private def leaves(p: SparkPlan): Int = collectLeaves(p).size
  private def unionInputs(p: SparkPlan): Int = collect(p) { case u: UnionExec => u.children.size }.sum

  /** One Spark job and one scan per input read, and no per-column union: the
    * executed plans that read an input (every plan not over local driver
    * data) are one per input, each with one leaf and no union. */
  private def assertOneReadPerInput(what: String, nInputs: Int)(body: => Unit): Unit = {
    val (counts, reads) = SparkJobs.countReads(spark)(body)
    assert(counts.jobs == nInputs, s"$what: ${counts.jobs} Spark jobs for $nInputs inputs")
    assert(reads.size == nInputs, s"$what: ${reads.size} input reads for $nInputs inputs\n" +
      reads.mkString("\n"))
    reads.foreach { p =>
      assert(leaves(p) == 1, s"$what: ${leaves(p)} scans in one read\n$p")
      assert(unionInputs(p) == 0, s"$what: per-column union\n$p")
    }
  }

  test("each cell-reading function scans every input once, with no per-column union") {
    assertOneReadPerInput("Relation.read", 1)(Relation.read(d1))
    assertOneReadPerInput("edges of one dataset", 1)(
      TripartiteGraph.edges(spark, Seq(d1), Tokenization.Flatten).collect())
    assertOneReadPerInput("edges of two datasets", 2)(
      TripartiteGraph.edges(spark, Seq(d1, d2), Tokenization.Flatten).collect())
    assertOneReadPerInput("distinctValues", 1)(Tokenization.distinctValues(spark, d1).collect())
    assertOneReadPerInput("sharedValues", 2)(Tokenization.sharedValues(spark, d1, d2))
    assertOneReadPerInput("sharedTokens", 2)(
      Tokenization.sharedTokens(spark, d1, d2, Tokenization.Flatten))
  }
}
