package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Scenarios
import repro.eval.Bench

import scala.collection.immutable.ListMap

/** spark-submit entrypoint for the evaluation tables: prints the lines of the
  * corresponding `repro.bench` suite through the same `Bench` functions.
  *
  * Usage: `spark-submit --class repro.jobs.TableJob repro.jar <1-6|tm|geom> [DS ...]`;
  * scenario shorthands (any case) restrict the run to those scenarios.
  * `geom` is a diagnostic, not a paper table: the RID-space geometry of the
  * pre-trained stand-in and EmbDI-O (`Bench.geometry`).
  */
object TableJob {

  /** A table's valid scenarios, those it runs when none are named, and its lines. */
  private final case class Entry(known: Seq[String], default: Seq[String],
                                 lines: (SparkSession, Seq[Bench.Bundle]) => Seq[String])

  private val all = Scenarios.allConfigs.map(_.shorthand)
  private val pairs = Scenarios.integrationConfigs.map(_.shorthand)

  private val tables: ListMap[String, Entry] = ListMap(
    "1" -> Entry(all, all, (_, bs) => Bench.table1(bs).lines),
    "2" -> Entry(all, all, (_, bs) => Bench.table2(bs).lines),
    "3" -> Entry(pairs, pairs, (_, bs) => Bench.table3(bs).lines),
    "4" -> Entry(pairs, pairs, (s, bs) => Bench.table4(s, bs).lines),
    "5" -> Entry(pairs, Bench.table5Scenarios, (s, bs) => bs.flatMap(Bench.table5Rows(s, _)).map(_.render)),
    "6" -> Entry(all, all, (_, bs) => Bench.table6(bs).lines),
    // §7.2 token matching runs on the IM pair only.
    "tm" -> Entry(Seq("IM"), Seq("IM"), (_, bs) => bs.flatMap(Bench.tokenMatchingRows).map(_.render)),
    "geom" -> Entry(pairs, Seq("IM", "BB"), (_, bs) => bs.flatMap(Bench.geometry).map(_.render)),
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
      val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
        .appName(s"table$t")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
      tables(t).lines(spark, scenarios.map(Bench.bundle(spark, _))).foreach(println)
      spark.stop()
  }
}
