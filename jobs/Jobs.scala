package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.{Datasets, Tables}

/** spark-submit entrypoints, one per evaluation table / shape experiment.
  * Example:
  *   spark-submit --class repro.jobs.Table1Job target/scala-2.13/repro_*.jar
  */
object Jobs {
  /** Builds the local session the jobs, the benchmark and the tests run
    * with. Broadcast joins are disabled so joins take the shuffle path.
    */
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Reproduces Table 1 (FilterV vs VFree CM cost on D14). */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table1")
    println(Tables.renderTable1(Tables.table1(spark)))
    spark.stop()
  }
}

/** Reproduces Table 2 (dataset statistics). */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table2")
    println(Tables.renderTable2(Tables.table2(spark)))
    spark.stop()
  }
}

/** Reproduces Table 3 (MFG vs MSG vs MFB case study). */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table3")
    println(Tables.renderTable3(Tables.table3(spark)))
    spark.stop()
  }
}

/** Reproduces the Fig. 5 shape (response times over all stand-ins). */
object Exp1Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("exp1")
    val names = if (args.nonEmpty) args.toSeq else Datasets.all.map(_.name)
    println(Tables.renderExp1(Tables.exp1(spark, names, budgetMs = 60000)))
    spark.stop()
  }
}
