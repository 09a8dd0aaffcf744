package repro.perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.util.Try

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import repro.core.{Deadline, Enumerators, GFCore, Params, VFree}
import repro.graph.TemporalBipartiteGraph
import repro.jobs.Jobs
import repro.spark.{DistributedMfg, GFCoreDF}

/** One run of one workload.
  *
  * Untraced (`--trace 0`): set up [[Run.SetupReps]] times (Spark session
  * plus the program's load of its input), compute the reference results
  * while warm-up queries run, then run queries for `--seconds` and report
  * the end-to-end metrics.
  *
  * Traced (`--trace 1`): the same set-up, then untraced and traced queries
  * alternating for `--seconds`, with spans around the public calls of each
  * layer; then the other pipeline (local workloads run one distributed
  * query, the distributed one runs local queries) so every layer is
  * measured, and a one-thread pass over the root branches ("seeds").
  */
final class Run(w: Workloads.Workload, opts: Main.Opts, report: Report) {
  import Run._

  private val spec = repro.bench.Datasets.byName(w.dataset)
  private val settings: Seq[Params] = w.settings(spec)
  private val tracer = new Tracer

  private var spark: SparkSession = _
  private var edges: Array[(Long, Long, Long)] = _
  private var input: DataFrame = _ // materialised edge table
  private var g: TemporalBipartiteGraph = _
  private val reference = mutable.Map.empty[Params, Set[Set[Long]]]
  private val seenLocal = mutable.Map.empty[Params, LocalCounts]
  private val seenDist = mutable.Map.empty[Params, DistCounts]
  private var queryId = 0
  /** Counts this run saw, which later runs of this build and seed must repeat. */
  private val repeatCounts = mutable.LinkedHashMap.empty[String, Long]

  def apply(): Unit = {
    val t0 = System.nanoTime()
    setup()
    val t1 = System.nanoTime()
    // Neither the reference nor the warm-up is measured, so they overlap.
    var refs: Try[Seq[(Params, Set[Set[Long]])]] = null
    val refThread = new Thread(null, () => refs = Try(settings.map(p => p -> referenceResult(p))),
      "reference", 64L << 20)
    refThread.start()
    warmUp(refThread)
    refThread.join()
    reference ++= Option(refs).getOrElse(throw new IllegalStateException("reference thread died")).get
    usedHeapAfterGc() // the reference's garbage is not the first query's to collect
    val t2 = System.nanoTime()
    if (opts.trace) traced() else timed()
    val t3 = System.nanoTime()
    spark.stop()
    report.note(f"phases setup_s=${(t1 - t0) / 1e9}%.1f reference_and_warmup_s=${(t2 - t1) / 1e9}%.1f " +
      f"queries_s=${(t3 - t2) / 1e9}%.1f")
    CountsFile.check(java.nio.file.Paths.get(opts.outDir, "counts", opts.build,
      s"${w.name}-seed${opts.seed.getOrElse("none")}.txt"), repeatCounts.toSeq, report)
  }

  // ------------------------------------------------------------------ set-up

  private def setup(): Unit = {
    val setupS = mutable.ArrayBuffer.empty[Double]
    for (_ <- 0 until SetupReps) {
      if (spark != null) { input = null; spark.stop() }
      val t0 = System.nanoTime()
      spark = Jobs.session("perfbench")
      val sessionNs = System.nanoTime() - t0
      if (edges == null) edges = generate() // the benchmark's own data: untimed
      val df = edgeFrame()
      val t1 = System.nanoTime()
      if (w.distributed) { input = df.cache(); input.count() }
      else g = TemporalBipartiteGraph.fromDF(df)
      setupS += (sessionNs + System.nanoTime() - t1) / 1e9
    }
    if (w.distributed) g = TemporalBipartiteGraph.fromDF(edgeFrame()) // for the reference
    val graphMb = (0 until GraphMbReps).map(_ => retainedMb(edgeFrame()))

    val sc = spark.sparkContext
    report.note(s"env spark_master=${sc.master} default_parallelism=${sc.defaultParallelism} " +
      s"shuffle_partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
      s"workload=${w.name} dataset=${spec.name} dataset_seed=${spec.seed} seed=${opts.seed.getOrElse("none")} " +
      s"settings=${settings.map(show).mkString(" ")}")
    report.note(s"setup input_rows=${edges.length} edges=${g.temporalEdgeCount} reps=$SetupReps " +
      s"setup_s=${setupS.map(x => f"$x%.3f").mkString(",")} graph_mb=${graphMb.map(x => f"$x%.3f").mkString(",")}")
    if (!opts.trace) { // the traced run reports the per-layer metrics only
      report.put("setup_s", Stats.median(setupS.toSeq), "s")
      report.put("graph_mb", Stats.median(graphMb), "MB")
    }
  }

  /** The stand-in's edges; with `--seed`, relabelled and reordered by it. */
  private def generate(): Array[(Long, Long, Long)] = {
    val raw = spec.edges(spark)
      .selectExpr("cast(u as long) as u", "cast(v as long) as v", "cast(t as long) as t")
      .collect()
      .map((r: Row) => (r.getLong(0), r.getLong(1), r.getLong(2)))
    opts.seed.fold(raw)(relabel(raw, _))
  }

  private def edgeFrame(): DataFrame = {
    val s = spark
    import s.implicits._
    edges.toSeq.toDF("u", "v", "t")
  }

  /** Heap retained by a graph `TemporalBipartiteGraph.fromDF` builds: used
    * heap after GC with the graph held, minus used heap after GC once it is
    * dropped (nothing else runs in between).
    */
  private def retainedMb(df: DataFrame): Double = {
    val holder = new Array[AnyRef](1)
    holder(0) = tracer.span("ingest", -1)(TemporalBipartiteGraph.fromDF(df))
    val held = usedHeapAfterGc()
    holder(0) = null
    (held - usedHeapAfterGc()) / 1e6
  }

  /** Independent enumerator (FilterV-), computed once per setting, untimed. */
  private def referenceResult(p: Params): Set[Set[Long]] =
    Enumerators.filterV(g, p, useCandFilter = false, useArrayVerify = false).results
      .getOrElse(throw new IllegalStateException(s"reference timed out at ${show(p)}"))

  // ------------------------------------------------------------------ queries

  /** One query of the workload's own pipeline: (wall ms, passed its check). */
  private def query(p: Params): (Double, Boolean) =
    if (w.distributed) {
      val t0 = System.nanoTime()
      val rows = Try(DistributedMfg.run(spark, input, p).collect())
      val ms = (System.nanoTime() - t0) / 1e6
      (ms, checked(rows)(r => checkDist(p, r)))
    } else {
      val t0 = System.nanoTime()
      val out = Try(Enumerators.vFree(g, p, budgetMs = QueryBudgetMs))
      val ms = (System.nanoTime() - t0) / 1e6
      (ms, checked(out)(o => checkLocal(p, o)))
    }

  private def checked[A](t: Try[A])(check: A => Boolean): Boolean = t.fold(
    e => { report.fail(s"query threw $e"); false },
    check)

  private def checkLocal(p: Params, o: Enumerators.Outcome): Boolean = o.results match {
    case None => report.fail(s"query timed out at ${show(p)}"); false
    case Some(r) =>
      val same = sameResult(p, r, "Enumerators.vFree")
      val counts = LocalCounts(o.stats.nodes, r.size.toLong, o.stats.filteredEdges)
      same && repeats(p, counts)
  }

  /** Groups as emitted: each must appear once (Thm 4.1), and the set must
    * equal the reference.
    */
  private def checkDist(p: Params, rows: Array[Row]): Boolean = {
    val groups = rows.map(_.getSeq[Long](0).toVector)
    val dups = groups.length - groups.distinct.length
    if (dups != 0) report.fail(s"DistributedMfg emitted $dups duplicate groups at ${show(p)}")
    repeatCounts(s"${show(p)}.dist.groups") = groups.length.toLong
    dups == 0 && sameResult(p, groups.iterator.map(_.toSet).toSet, "DistributedMfg")
  }

  private def sameResult(p: Params, r: Set[Set[Long]], who: String): Boolean = {
    val same = r == reference(p)
    if (!same) report.fail(s"$who at ${show(p)}: ${r.size} groups, reference has ${reference(p).size}")
    same
  }

  /** Counts must repeat exactly across queries, and match the pinned values. */
  private def repeats(p: Params, c: LocalCounts): Boolean = {
    val first = seenLocal.getOrElseUpdate(p, c)
    repeatCounts ++= Seq(s"${show(p)}.vfree.nodes" -> first.vfreeNodes,
      s"${show(p)}.vfree.results" -> first.vfreeResults, s"${show(p)}.gfcore.edges_out" -> first.gfcoreEdgesOut)
    val pinned = Expected.local.get((w.dataset, p))
    val ok = c == first && pinned.forall(_ == (c.vfreeResults, c.gfcoreEdgesOut))
    if (!ok) report.fail(s"counts at ${show(p)}: $c, first query $first, pinned (MFGs, edges kept) $pinned")
    ok
  }

  /** Untimed, unchecked queries so the JIT has compiled the hot paths, at
    * least [[WarmUpQueries]] and until the reference is done. The
    * distributed workload first runs one full query; its local queries warm
    * the search kernel the seed tasks run.
    */
  private def warmUp(reference: Thread): Unit = {
    if (w.distributed) DistributedMfg.run(spark, input, settings.head).collect()
    var i = 0
    while (i < WarmUpQueries || reference.isAlive) {
      Enumerators.vFree(g, settings(i % settings.length))
      i += 1
    }
    report.note(s"warm-up local_queries=$i")
  }

  /** Runs `q(i)` for i = 0, 1, ... in whole cycles over the settings, while
    * fewer than `seconds` have passed; every run thus weighs each setting
    * the same, whatever the number of queries.
    */
  private def loop(seconds: Double)(q: Int => Double): Seq[Double] = {
    val times = mutable.ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    while (System.nanoTime() - t0 < seconds * 1e9 || times.length % settings.length != 0) times += q(times.length)
    times.toSeq
  }

  private def primary(i: Int): Double = {
    val (ms, ok) = query(settings(i % settings.length))
    report.query(ok)
    ms
  }

  // ------------------------------------------------------------------ untraced

  private def timed(): Unit = {
    val times = loop(opts.seconds)(primary)
    val (tail, pct) = Stats.tail(times)
    report.note(f"queries n=${times.length} tail=p$pct%.1f failed_frac=${report.failed.toDouble / report.attempted}")
    report.note(s"query_ms ${times.map(t => f"$t%.0f").mkString(",")}")
    report.put("query_ms_p50", Stats.median(times), "ms")
    report.put("query_ms_tail", tail, "ms")
    report.put("queries_per_s", times.length / (times.sum / 1e3), "1/s")
  }

  // ------------------------------------------------------------------ traced

  private val localRecs = mutable.ArrayBuffer.empty[LocalRec]
  private val distRecs = mutable.ArrayBuffer.empty[DistRec]
  private val listener = new JobListener
  private var broadcastGraph: TemporalBipartiteGraph = _

  private def traced(): Unit = {
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      // untraced and traced queries alternate, on the same settings
      val plain = mutable.ArrayBuffer.empty[Double]
      val tracedMs = loop(opts.seconds) { i =>
        val p = settings(i % settings.length)
        plain += primary(i)
        if (w.distributed) tracedDist(p) else tracedLocal(p)
      }
      if (w.distributed) for (i <- 0 until OtherPipelineQueries) tracedLocal(settings(i % settings.length))
      else {
        input = edgeFrame().cache()
        input.count()
        tracedDist(settings.head)
      }
      seeds(settings.head)
      layerMetrics(plain.toSeq, tracedMs)
    } finally sc.removeSparkListener(listener)
    val path = java.nio.file.Paths.get(opts.outDir, "trace", s"${w.name}-seed${opts.seed.getOrElse("none")}.jsonl")
    tracer.write(path)
    report.note(s"trace spans=${tracer.all.length} written to $path")
  }

  private def nextQuery(): Int = { queryId += 1; queryId }

  /** `Enumerators.vFree` as one span, then the same calls it makes composed
    * by hand (`GFCore.apply` → `reorderByDegree` → `VFree.run`), then one
    * `GFCore.filterEdges` outside the query for the cascade/rebuild split.
    */
  private def tracedLocal(p: Params): Double = {
    val q = nextQuery()
    val out = Try(tracer.span("query", q)(Enumerators.vFree(g, p, budgetMs = QueryBudgetMs)))
    val ok = checked(out)(o => checkLocal(p, o))
    val (fg, alg, res) = tracer.span("layers", q) {
      val fg = tracer.span("gfcore", q)(GFCore(g, p))
      val rg = tracer.span("reorder", q)(Enumerators.reorderByDegree(fg))
      tracer.span("vfree", q) {
        val alg = new VFree(rg, p, Deadline.unlimited)
        (fg, alg, alg.run())
      }
    }
    tracer.span("gfcore.cascade", q)(GFCore.filterEdges(g, p))
    val counts = LocalCounts(alg.stats.nodes, res.size.toLong, fg.temporalEdgeCount)
    val composedOk = sameResult(p, res, "GFCore+reorder+VFree") && repeats(p, counts)
    report.query(ok && composedOk)
    def ns(name: String) = tracer.durNs(q, name)
    localRecs += LocalRec(ns("query"), ns("gfcore"), ns("gfcore.cascade"), ns("reorder"), ns("vfree"),
      alg.stats.cmNanos, counts)
    ns("query") / 1e6
  }

  /** `DistributedMfg.run(..).collect()` as one span (run and collect as
    * children), then `GFCoreDF.apply` and the local graph build outside it.
    */
  private def tracedDist(p: Params): Double = {
    val sc = spark.sparkContext
    val q = nextQuery()
    val from = listener.mark(sc)
    var collectStartMs = 0L
    val rows = Try(tracer.span("dist.query", q) {
      val df = tracer.span("dist.run", q)(DistributedMfg.run(spark, input, p))
      collectStartMs = System.currentTimeMillis()
      tracer.span("dist.collect", q)(df.collect())
    })
    val ok = checked(rows)(r => checkDist(p, r))
    val jobs = listener.jobsSince(sc, from)
    // the seed stage is the last stage the collect submitted
    val seedStage = listener.stagesSince(sc, from).filter(_.submittedMs >= collectStartMs).last

    val from2 = listener.mark(sc)
    val pruned = tracer.span("gfcoredf", q)(GFCoreDF(input, p))
    val gfJobs = listener.jobsSince(sc, from2)
    val edgesOut = pruned.count()
    broadcastGraph =
      tracer.span("dist.build", q)(Enumerators.reorderByDegree(TemporalBipartiteGraph.fromDF(pruned)))

    val counts = DistCounts(gfJobs, edgesOut, seedStage.numTasks)
    val first = seenDist.getOrElseUpdate(p, counts)
    repeatCounts ++= Seq(s"${show(p)}.gfcoredf.spark_jobs" -> first.gfcoredfJobs,
      s"${show(p)}.gfcoredf.edges_out" -> first.gfcoredfEdgesOut, s"${show(p)}.dist.seed_tasks" -> first.seedTasks)
    val pinned = Expected.dist.get((w.dataset, p))
    val countsOk = counts == first && pinned.forall(_ == (counts.gfcoredfJobs, counts.gfcoredfEdgesOut))
    if (!countsOk) report.fail(s"distributed counts at ${show(p)}: $counts, first query $first, " +
      s"pinned (jobs, edges kept) $pinned")
    report.query(ok && countsOk)
    def ns(name: String) = tracer.durNs(q, name)
    distRecs += DistRec(ns("dist.query"), jobs, seedStage.completedMs - seedStage.submittedMs,
      listener.taskDurationsMs(seedStage.id), counts, ns("gfcoredf"), ns("dist.build"))
    ns("dist.query") / 1e6
  }

  /** Every root branch of the broadcast graph, one after another in this
    * JVM, as the seed stage's tasks run them: how skewed is the work?
    */
  private def seeds(p: Params): Unit = {
    val engine = new VFree(broadcastGraph, p, Deadline.unlimited)
    val groups = Set.newBuilder[Set[Long]]
    val nodes = (0 until broadcastGraph.nV).map { v =>
      val before = engine.stats.nodes
      groups ++= engine.runSeed(v)
      engine.stats.nodes - before
    }
    sameResult(p, groups.result(), "VFree.runSeed over all seeds")
    val desc = nodes.sorted(Ordering[Long].reverse)
    val total = math.max(1L, nodes.sum)
    val top = math.ceil(nodes.length / 10.0).toInt
    val c = SeedCounts(nodes.length.toLong, nodes.sum, desc.headOption.getOrElse(0L), desc.take(top).sum)
    Expected.seeds.get((w.dataset, p)).foreach { pinned =>
      if (pinned != c.count) report.fail(s"seed counts at ${show(p)}: $c, pinned seed count $pinned")
    }
    report.note(s"seeds $c at ${show(p)}")
    repeatCounts ++= Seq(s"${show(p)}.seeds.count" -> c.count, s"${show(p)}.seeds.nodes" -> c.totalNodes,
      s"${show(p)}.seeds.max_nodes" -> c.maxNodes, s"${show(p)}.seeds.top10_nodes" -> c.top10Nodes)
    report.put("seeds.count", c.count.toDouble, "count")
    report.put("seeds.top10_node_share", c.top10Nodes.toDouble / total, "ratio")
    report.put("seeds.max_node_share", c.maxNodes.toDouble / total, "ratio")
  }

  private def layerMetrics(plain: Seq[Double], tracedMs: Seq[Double]): Unit = {
    def med(xs: Iterable[Double]) = Stats.median(xs.toSeq)
    val l = localRecs.toSeq
    val d = distRecs.toSeq
    val l0 = l.head.counts
    val d0 = d.head.counts
    val untracedP50 = med(plain)
    val tracedP50 = med(tracedMs)
    report.note(f"trace untraced_p50_ms=$untracedP50%.3f traced_p50_ms=$tracedP50%.3f " +
      f"local_queries=${l.length} dist_queries=${d.length}")
    // per query: the four local layers account for the whole query span
    val overheadMs = l.map(r => (r.queryNs - r.gfcoreNs - r.reorderNs - r.vfreeNs) / 1e6)
    val layerSum = med(l.map(_.gfcoreNs / 1e6)) + med(l.map(_.reorderNs / 1e6)) +
      med(l.map(_.vfreeNs / 1e6)) + med(overheadMs)
    report.note(f"trace medians: gfcore+reorder+vfree+overhead=$layerSum%.3f ms, query span=${
      med(l.map(_.queryNs / 1e6))}%.3f ms (per query the four sum to the span exactly)")

    report.put("ingest.ms", tracer.selfMs("ingest"), "ms")
    report.put("ingest.edges", g.temporalEdgeCount.toDouble, "count")
    report.put("gfcore.ms", med(l.map(_.gfcoreNs / 1e6)), "ms")
    report.put("gfcore.cascade_ms", med(l.map(_.cascadeNs / 1e6)), "ms")
    report.put("gfcore.rebuild_ms", med(l.map(r => (r.gfcoreNs - r.cascadeNs) / 1e6)), "ms")
    report.put("gfcore.edges_in", g.temporalEdgeCount.toDouble, "count")
    report.put("gfcore.edges_out", l0.gfcoreEdgesOut.toDouble, "count")
    report.put("gfcore.kept_ratio", l0.gfcoreEdgesOut.toDouble / g.temporalEdgeCount, "ratio")
    report.put("gfcore.alloc_mb", tracer.allocMb("gfcore"), "MB")
    report.put("reorder.ms", med(l.map(_.reorderNs / 1e6)), "ms")
    report.put("reorder.alloc_mb", tracer.allocMb("reorder"), "MB")
    report.put("vfree.ms", med(l.map(_.vfreeNs / 1e6)), "ms")
    report.put("vfree.nodes", l0.vfreeNodes.toDouble, "count")
    report.put("vfree.ns_per_node", med(l.map(r => r.vfreeNs.toDouble / math.max(1L, r.counts.vfreeNodes))), "ns")
    report.put("vfree.cm_ms", med(l.map(_.cmNs / 1e6)), "ms")
    report.put("vfree.results", l0.vfreeResults.toDouble, "count")
    report.put("vfree.alloc_mb", tracer.allocMb("vfree"), "MB")
    report.put("enumerators.overhead_ms", med(overheadMs), "ms")
    report.put("gfcoredf.ms", med(d.map(_.gfcoredfNs / 1e6)), "ms")
    report.put("gfcoredf.spark_jobs", d0.gfcoredfJobs.toDouble, "count")
    report.put("gfcoredf.edges_out", d0.gfcoredfEdgesOut.toDouble, "count")
    report.put("dist.build_ms", med(d.map(_.buildNs / 1e6)), "ms")
    report.put("dist.seed_stage_ms", med(d.map(_.seedStageMs.toDouble)), "ms")
    report.put("dist.seed_tasks", d0.seedTasks.toDouble, "count")
    report.put("dist.seed_task_ms_p50", med(d.map(r => Stats.median(r.seedTaskMs.map(_.toDouble)))), "ms")
    report.put("dist.seed_task_ms_max", med(d.map(_.seedTaskMs.max.toDouble)), "ms")
    report.put("dist.spark_jobs", d.head.jobs.toDouble, "count")
    report.put("trace.query_ms_p50", tracedP50, "ms")
    report.put("trace.overhead_ms", tracedP50 - untracedP50, "ms")
  }
}

object Run {
  /** One traced local query: span durations and the counts it produced. */
  final case class LocalRec(queryNs: Long, gfcoreNs: Long, cascadeNs: Long, reorderNs: Long,
                            vfreeNs: Long, cmNs: Long, counts: LocalCounts)

  /** One traced distributed query, with its Spark figures. */
  final case class DistRec(queryNs: Long, jobs: Int, seedStageMs: Long, seedTaskMs: Seq[Long],
                           counts: DistCounts, gfcoredfNs: Long, buildNs: Long)

  /** Set-up (session + load) is repeated and its median reported. */
  val SetupReps = 3
  /** Other threads (Spark's) sometimes move the used heap by a region or
    * two while the graph is measured; the median of five hides that.
    */
  val GraphMbReps = 5
  val WarmUpQueries = 3
  /** Distributed workload's traced run: local queries for the local layers. */
  val OtherPipelineQueries = 3
  /** A local query past this budget counts as failed (timed out). */
  val QueryBudgetMs = 60000L

  /** A seeded relabelling of a stand-in: U, V and T labels each permuted
    * among themselves and the edges shuffled. The graph's structure, and so
    * the work every layer does, stays the same; ids, edge order, the degree
    * reorder's tie-breaks and Spark's hash partitioning change with the seed.
    */
  def relabel(edges: Array[(Long, Long, Long)], seed: Long): Array[(Long, Long, Long)] = {
    val rng = new scala.util.Random(seed)
    def permutation(labels: Array[Long]): Map[Long, Long] = {
      val sorted = labels.distinct.sorted
      sorted.iterator.zip(rng.shuffle(sorted.toSeq).iterator).toMap
    }
    val pu = permutation(edges.map(_._1))
    val pv = permutation(edges.map(_._2))
    val pt = permutation(edges.map(_._3))
    rng.shuffle(edges.toSeq).iterator.map { case (u, v, t) => (pu(u), pv(v), pt(t)) }.toArray
  }

  def show(p: Params): String = s"(${p.tauU},${p.tauV},${p.lambda})"

  private val memory = ManagementFactory.getMemoryMXBean

  def usedHeapAfterGc(): Long = { System.gc(); memory.getHeapMemoryUsage.getUsed }
}
