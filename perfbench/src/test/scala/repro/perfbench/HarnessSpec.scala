package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import java.nio.file.{Files, Paths}

/** Self-test of the benchmark harness on the `smoke` input: every layer,
  * every output check and both result shapes, in about a minute. */
class HarnessSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark: SparkSession = Main.session()
  override def afterAll(): Unit = spark.stop()

  private def smoke(trace: Boolean): Main.Report =
    Main.execute(spark, Main.Opts("smoke", 0L, 1.0, trace, "", "", "test"), _ => (), 0.0)

  /** Metric names listed under `key` in the repository's BENCHMARK.json. */
  private def benchmarkNames(key: String): Seq[String] = {
    val text = new String(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")), "UTF-8")
    val section = text.drop(text.indexOf(s"\"$key\"")).takeWhile(_ != ']')
    "\"name\":\\s*\"([^\"]+)\"".r.findAllMatchIn(section).map(_.group(1)).toSeq
  }

  test("untraced smoke run passes every check and reports the end-to-end metrics") {
    val r = smoke(trace = false)
    assert(r.correct && r.failed == 0 && r.attempted >= 1)
    assert(r.metrics.map(_._1) == benchmarkNames("end_to_end"))
    assert(r.metrics.forall(_._2 > 0), r.metrics)
  }

  test("traced smoke run covers the run with layer spans and reports the per-layer metrics") {
    val r = smoke(trace = true)
    assert(r.correct && r.failed == 0)
    assert(r.metrics.map(_._1) == benchmarkNames("per_layer"))
    val m = r.metrics.map(x => x._1 -> x._2).toMap
    Layers.all.foreach(l => assert(m(s"$l.wall_s") > 0, l))
    assert(m("Trace.coverage") >= 0.95)
    assert(m("Trace.unattributed_jobs") == 0)
    assert(m("EntityResolver.candidate_probes") == m("NearestNeighbors.dot_products"))
  }

  test("jobs go to the layer of their call-site file, else to the open span") {
    val l = new LayerListener
    assert(l.layerOf("collect at NearestNeighbors.scala:44", "EntityResolver") == "NearestNeighbors")
    assert(l.layerOf("count at Workloads.scala:91", "TripartiteGraph") == "TripartiteGraph")
    assert(l.layerOf("collect at Word2Vec.scala:120", null) == "unattributed")
  }

  test("a layer's self time excludes the spans nested in it") {
    val spans = Seq(Span(0, -1, "EntityResolver", 0L, 100L),
      Span(1, 0, "NearestNeighbors", 10L, 30L), Span(2, 0, "NearestNeighbors", 50L, 60L))
    val self = LayerTotals.selfIntervals(spans)
    assert(self(0) == Seq((0L, 10L), (30L, 50L), (60L, 100L)))
    assert(self(1) == Seq((10L, 30L)))
  }
}
