package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Scenarios
import repro.eval.Bench

/** spark-submit entrypoints, one per evaluation table. Each prints the same
  * rows the corresponding `repro.bench.Table*Bench` suite emits.
  *
  * Usage: `spark-submit --class repro.jobs.Table2Job repro.jar [DS ...]`
  * (optional scenario shorthands restrict the run).
  */
private object JobUtil {
  def session(name: String): SparkSession =
    SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def scenarios(args: Array[String], pairsOnly: Boolean = false): Seq[String] = {
    val all = (if (pairsOnly) Scenarios.integrationConfigs else Scenarios.allConfigs)
      .map(_.shorthand)
    if (args.isEmpty) all else args.toSeq.map(_.toUpperCase).filter(all.contains)
  }
}

object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table1")
    JobUtil.scenarios(args).foreach(s => println(Bench.table1Row(spark, s).render))
    spark.stop()
  }
}

object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table2")
    JobUtil.scenarios(args).foreach(s => Bench.table2Rows(spark, s).foreach(r => println(r.render)))
    spark.stop()
  }
}

object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table3")
    JobUtil.scenarios(args, pairsOnly = true).foreach(s => println(Bench.table3Row(spark, s).render))
    spark.stop()
  }
}

object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table4")
    JobUtil.scenarios(args, pairsOnly = true).foreach(s => println(Bench.table4Row(spark, s).render))
    spark.stop()
  }
}

object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table5")
    val scenarios = if (args.nonEmpty) args.toSeq else Bench.table5Scenarios
    scenarios.foreach(s => Bench.table5Rows(spark, s).foreach(r => println(r.render)))
    spark.stop()
  }
}

object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table6")
    JobUtil.scenarios(args).foreach(s => println(Bench.timingRow(spark, s).render))
    spark.stop()
  }
}

object TokenMatchingJob {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("tokenmatching")
    Bench.tokenMatchingRows(spark).foreach(r => println(r.render))
    spark.stop()
  }
}
