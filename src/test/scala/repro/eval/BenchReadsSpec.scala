package repro.eval

import repro.{SparkJobs, SparkSpec}
import repro.data.Scenarios

/** One read per scenario: a bundle reads each table and the ground truth once,
  * and every row function of Tables 1–5 works from those reads. */
class BenchReadsSpec extends SparkSpec {

  test("Tables 1-5 of a fresh bundle read d1, d2 and the ground truth once each") {
    // A bundle of its own, outside Bench's cache, so no earlier read is reused.
    val b = new Bench.Bundle(Scenarios.generate(spark, Scenarios.tiny))
    val (counts, reads) = SparkJobs.countReads(spark) {
      Bench.table1(Seq(b)); Bench.table2(Seq(b)); Bench.table3(Seq(b)); Bench.table5Rows(spark, b)
    }
    assert(counts.jobs == 3, s"${counts.jobs} Spark jobs for d1, d2 and the ground truth")
    assert(reads.size == 3, reads.mkString("\n"))
    // Table 4 reads nothing more: DeepER's MLlib jobs run on local frames.
    val table4Reads = SparkJobs.countReads(spark)(Bench.table4(spark, Seq(b)))._2
    assert(table4Reads.isEmpty, table4Reads.mkString("\n"))
  }
}
