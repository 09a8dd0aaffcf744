package repro.perfbench

import scala.collection.mutable

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The tail of a run's query times, as (value, percentile): the highest
    * percentile with at least ten samples above it, but never below p90.
    * Runs with fewer than 100 samples therefore report p90 (nearest rank),
    * with fewer than ten samples above it.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    val n = s.length
    if (n >= 100) (s(n - 11), 100.0 * (n - 10) / n)
    else (s(math.ceil(0.9 * n).toInt - 1), 90.0)
  }
}

/** What one run reports: named metrics with units, query accounting, and
  * free-form lines (environment, checks) printed before the JSON result.
  */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val lines = mutable.ArrayBuffer.empty[String]
  var attempted = 0L
  var failed = 0L
  private var problems = List.empty[String]

  def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  def note(line: String): Unit = lines += line

  /** A correctness problem: the run reports `correct: false` and exits non-zero. */
  def fail(problem: String): Unit = { problems ::= problem; lines += s"FAIL $problem" }

  def correct: Boolean = problems.isEmpty && failed == 0

  def query(ok: Boolean): Unit = { attempted += 1; if (!ok) failed += 1 }

  def textLines: Seq[String] =
    lines.toSeq ++ metrics.map { case (k, (v, u)) => s"metric $k = ${fmt(v, u)} $u" }

  def json: String = {
    val ms = metrics.map { case (k, (v, u)) => s""""$k": {"value": ${fmt(v, u)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  private def fmt(v: Double, unit: String): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (unit == "count" && v == math.rint(v)) v.toLong.toString
    else v.toString
}

/** Counts kept across runs in the build directory, one file per build and
  * seed: the first run writes them, every later run must repeat them.
  */
object CountsFile {
  def check(path: java.nio.file.Path, counts: Seq[(String, Long)], report: Report): Unit = {
    import java.nio.file.Files
    import scala.jdk.CollectionConverters._
    val earlier: Map[String, Long] =
      if (!Files.exists(path)) Map.empty
      else Files.readAllLines(path).asScala.iterator.map(_.split('=')).collect {
        case Array(k, v) => k -> v.toLong
      }.toMap
    for ((k, v) <- counts; e <- earlier.get(k) if e != v)
      report.fail(s"count $k = $v, an earlier run of this build and seed had $e")
    val merged = earlier ++ counts
    Files.createDirectories(path.getParent)
    Files.write(path, merged.toSeq.sortBy(_._1).map { case (k, v) => s"$k=$v" }.asJava)
    report.note(s"counts ${counts.map { case (k, v) => s"$k=$v" }.mkString(" ")}")
  }
}
