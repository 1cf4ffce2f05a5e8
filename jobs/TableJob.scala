package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Scenarios
import repro.eval.Bench

import scala.collection.immutable.ListMap

private object JobUtil {
  def session(name: String): SparkSession =
    SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** spark-submit entrypoint for the evaluation tables: prints the rows of the
  * corresponding `repro.bench` suite through the same `Bench` row functions.
  *
  * Usage: `spark-submit --class repro.jobs.TableJob repro.jar <1-6|tm> [DS ...]`;
  * scenario shorthands (any case) restrict the run to those scenarios.
  */
object TableJob {

  /** A table's valid scenarios, those it runs when none are named, and its
    * rows for one scenario's bundle. */
  private final case class Table(known: Seq[String], default: Seq[String],
                                 rows: (SparkSession, Bench.Bundle) => Seq[String])

  private val all = Scenarios.allConfigs.map(_.shorthand)
  private val pairs = Scenarios.integrationConfigs.map(_.shorthand)

  private val tables: ListMap[String, Table] = ListMap(
    "1" -> Table(all, all, (_, b) => Seq(Bench.table1Row(b).render)),
    "2" -> Table(all, all, (_, b) => Bench.table2Rows(b).map(_.render)),
    "3" -> Table(pairs, pairs, (_, b) => Seq(Bench.table3Row(b).render)),
    "4" -> Table(pairs, pairs, (s, b) => Seq(Bench.table4Row(s, b).render)),
    "5" -> Table(pairs, Bench.table5Scenarios, (s, b) => Bench.table5Rows(s, b).map(_.render)),
    "6" -> Table(all, all, (_, b) => Seq(Bench.timingRow(b).render)),
    // §7.2 token matching runs on the IM pair only.
    "tm" -> Table(Seq("IM"), Seq("IM"), (_, b) => Bench.tokenMatchingRows(b).map(_.render)),
  )

  /** The table and the scenarios to run, or why the arguments are rejected. */
  def parse(args: Seq[String]): Either[String, (String, Seq[String])] = for {
    name <- args.headOption.toRight(s"usage: TableJob <${tables.keys.mkString("|")}> [DS ...]")
    t = name.toLowerCase
    table <- tables.get(t).toRight(s"unknown table '$name' (known: ${tables.keys.mkString(", ")})")
    wanted = args.tail.map(_.toUpperCase)
    _ <- wanted.find(!table.known.contains(_)).map(bad =>
      s"unknown scenario '$bad' for table $t (known: ${table.known.mkString(", ")})").toLeft(())
  } yield t -> (if (wanted.isEmpty) table.default else wanted)

  def main(args: Array[String]): Unit = parse(args.toSeq) match {
    case Left(message) => System.err.println(message); sys.exit(2)
    case Right((t, scenarios)) =>
      val spark = JobUtil.session(s"table$t")
      scenarios.foreach(d => tables(t).rows(spark, Bench.bundle(spark, d)).foreach(println))
      spark.stop()
  }
}
