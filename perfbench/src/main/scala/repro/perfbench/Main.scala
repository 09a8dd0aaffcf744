package repro.perfbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

/** Entry point of one benchmark run:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  * Prints the environment, checks and metrics as text, then one JSON line.
  * Exits 1 if any query failed its result check or a count did not repeat.
  */
object Main {
  final case class Opts(workload: String, seed: Option[Long], seconds: Int, trace: Boolean,
                        outDir: String, build: String)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(
      workload = need("workload"),
      seed = kv.get("seed").map(_.toLong),
      seconds = kv.getOrElse("seconds", "10").toInt,
      trace = kv.getOrElse("trace", "0") == "1",
      outDir = sys.props.getOrElse("perfbench.out", ".bench_build"),
      build = sys.props.getOrElse("perfbench.build", "unknown"),
    )
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val workload = Workloads.byName(opts.workload)
    val report = new Report
    report.note(environment())
    val code =
      try {
        new Run(workload, opts, report).apply()
        if (report.correct) 0 else 1
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          report.fail(s"run aborted: $e")
          1
      }
    report.textLines.foreach(println)
    println(report.json)
    System.out.flush()
    System.exit(code)
  }

  /** JVM settings the numbers depend on (Spark's are added by [[Run]]). */
  private def environment(): String = {
    val args = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
    def flag(prefix: String) = args.filter(_.startsWith(prefix)).lastOption.map(_.drop(prefix.length)).getOrElse("default")
    s"env nproc=${Runtime.getRuntime.availableProcessors} java=${System.getProperty("java.version")} " +
    s"xmx=${flag("-Xmx")} xss=${flag("-Xss")} max_heap_mb=${Runtime.getRuntime.maxMemory / (1 << 20)}"
  }
}
