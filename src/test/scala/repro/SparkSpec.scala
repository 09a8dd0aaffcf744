package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run,
  * configured by [[repro.jobs.Jobs.session]] exactly as the jobs and the
  * benchmark are.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Edge DataFrame with columns `(u, v, t)` from labelled triples. */
  def edgesDF(triples: Seq[(Long, Long, Long)]): DataFrame = {
    import spark.implicits._
    triples.toDF("u", "v", "t")
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = repro.jobs.Jobs.session("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
