package repro.bench

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.graph.TemporalBipartiteGraph

/** Computation of every evaluation-section table (the rows the benches and
  * jobs print, and EXPERIMENTS.md records). Paper numbers are embedded next
  * to measured ones so the reader can diff shapes directly.
  */
object Tables {

  // ---------------------------------------------------------------- shared

  /** Builds the in-memory graph of a stand-in dataset. */
  def loadGraph(spark: SparkSession, spec: Datasets.DatasetSpec): TemporalBipartiteGraph =
    TemporalBipartiteGraph.fromDF(spec.edges(spark))

  /** One timed enumeration, run after a full GC so that the previous run's
    * garbage is not collected inside this run's timer.
    */
  private def measured(run: => Enumerators.Outcome): Enumerators.Outcome = { System.gc(); run }

  def fmt(d: Double): String = f"$d%.2f"

  /** Plain-text table printer (monospace aligned). */
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  // ---------------------------------------------------------------- table 1

  /** Paper Table 1 row: CM share/time for FilterV vs VFree on D14. */
  final case class Table1Row(params: Params, filterVCmShare: Double, filterVCmSec: Double,
                             vfreeCmSec: Double, filterVTotalSec: Double, vfreeTotalSec: Double,
                             mfgs: Int, filterVNodes: Long = 0, filterVChecks: Long = 0,
                             vfreeNodes: Long = 0)

  val table1Settings: Seq[Params] =
    Seq(Params(8, 4, 8), Params(9, 5, 8), Params(10, 6, 6), Params(10, 6, 10))

  /** Paper-reported Table 1 values, keyed like `table1Settings`:
    * (FilterV-CM %, FilterV-CM s, VFree-CM s).
    */
  val table1Paper: Map[Params, (Double, Double, Double)] = Map(
    Params(8, 4, 8)   -> (88.26, 899.30, 63.80),
    Params(9, 5, 8)   -> (88.52, 702.27, 28.78),
    Params(10, 6, 6)  -> (85.05, 617.14, 26.65),
    Params(10, 6, 10) -> (86.68, 248.64, 9.04),
  )

  def table1(spark: SparkSession, budgetMs: Long = 0): Seq[Table1Row] = {
    val g = loadGraph(spark, Datasets.byName("D14"))
    // JIT warm-up at the tightest setting so the measured loop is steady-state
    Enumerators.filterV(g, table1Settings.last, budgetMs = budgetMs)
    Enumerators.vFree(g, table1Settings.last, budgetMs = budgetMs, workers = 1)
    table1Settings.map { p =>
      val fv = measured(Enumerators.filterV(g, p, budgetMs = budgetMs))
      val vf = measured(Enumerators.vFree(g, p, budgetMs = budgetMs, workers = 1))
      Table1Row(p,
        filterVCmShare = fv.stats.cmShare * 100.0,
        filterVCmSec = fv.stats.cmNanos / 1e9,
        vfreeCmSec = vf.stats.cmNanos / 1e9,
        filterVTotalSec = fv.stats.totalNanos / 1e9,
        vfreeTotalSec = vf.stats.totalNanos / 1e9,
        mfgs = vf.count,
        filterVNodes = fv.stats.nodes, filterVChecks = fv.stats.freqChecks,
        vfreeNodes = vf.stats.nodes)
    }
  }

  def renderTable1(rows: Seq[Table1Row]): String = {
    val header = Seq("(tauU,tauV,lambda)", "FilterV-CM (%)", "FilterV-CM (s)", "VFree-CM (s)",
                     "paper CM%", "paper FilterV-CM", "paper VFree-CM", "#MFG",
                     "FV nodes", "FV checks", "VF nodes")
    render("Table 1 — FilterV vs VFree: valid-candidate + maximality cost on D14 stand-in",
      header,
      rows.map { r =>
        val (pc, pf, pv) = table1Paper(r.params)
        Seq(s"(${r.params.tauU},${r.params.tauV},${r.params.lambda})",
            fmt(r.filterVCmShare) + "%", fmt(r.filterVCmSec), fmt(r.vfreeCmSec),
            fmt(pc) + "%", fmt(pf), fmt(pv), r.mfgs.toString,
            r.filterVNodes.toString, r.filterVChecks.toString, r.vfreeNodes.toString)
      })
  }

  // ---------------------------------------------------------------- table 2

  final case class Table2Row(name: String, nU: Long, nV: Long, nE: Long, nT: Long,
                             paperU: Long, paperV: Long, paperE: Long, paperT: Int,
                             defaults: Params)

  def table2(spark: SparkSession): Seq[Table2Row] =
    Datasets.all.map { spec =>
      val g = loadGraph(spark, spec)
      Table2Row(spec.name, g.nU, g.nV, g.temporalEdgeCount, g.nT,
        spec.paperU, spec.paperV, spec.paperE, spec.nT, spec.defaults)
    }

  def renderTable2(rows: Seq[Table2Row]): String =
    render("Table 2 — dataset statistics (synthetic stand-ins vs paper)",
      Seq("Dataset", "|U|", "|V|", "|E|", "|T|", "paper |U|", "paper |V|", "paper |E|", "paper |T|", "(tU,tV,l)"),
      rows.map(r => Seq(r.name, r.nU.toString, r.nV.toString, r.nE.toString, r.nT.toString,
        r.paperU.toString, r.paperV.toString, r.paperE.toString, r.paperT.toString,
        s"(${r.defaults.tauU},${r.defaults.tauV},${r.defaults.lambda})")))

  // ---------------------------------------------------------------- table 3

  final case class Table3Result(mfg: Seq[Set[String]], msg: Seq[Set[String]], mfb: Seq[String])

  def table3(spark: SparkSession, budgetMs: Long = 120000): Table3Result = {
    val g = TemporalBipartiteGraph.fromDF(CaseStudy.edges(spark))
    val p = CaseStudy.params
    val mfg = Enumerators.vFree(g, p, budgetMs = budgetMs).results.getOrElse(Set.empty)
      .toSeq.map(_.map(CaseStudy.conditionName)).sortBy(s => (-s.size, s.min))
    val msgRes = Models.msg(g, p, budgetMs).getOrElse(Set.empty)
      .toSeq.map(_.map(CaseStudy.conditionName)).sortBy(s => (-s.size, s.min))
    val mfbRes = Models.mfb(g, p, budgetMs).map(_.map(b =>
      s"U=${b.us.size} patients x V={${b.vs.map(CaseStudy.conditionName).toSeq.sorted.mkString(", ")}}"))
      .getOrElse(Vector("TIMEOUT"))
    Table3Result(mfg, msgRes, mfbRes)
  }

  def renderTable3(res: Table3Result): String = {
    def show(groups: Seq[Set[String]], limit: Int): String =
      if (groups.isEmpty) "N/A"
      else groups.take(limit).map(_.toSeq.sorted.mkString("{", ", ", "}")).mkString("; ") +
        (if (groups.size > limit) s" … (${groups.size} total)" else "")
    render("Table 3 — case study on D1 stand-in (tauU=tauV=2, lambda=6)",
      Seq("Model", "Partial results"),
      Seq(
        Seq("MFG", show(res.mfg, 6)),
        Seq("MSG", show(res.msg, 3)),
        Seq("MFB", if (res.mfb.isEmpty) "N/A" else res.mfb.take(4).mkString("; ")),
      ))
  }

  // -------------------------------------------------- figure-shaped benches

  /** Exp-1 (Fig. 5): response time of the four headline algorithms. */
  final case class Exp1Row(dataset: String, outcomes: Seq[Enumerators.Outcome])

  def exp1(spark: SparkSession, names: Seq[String], budgetMs: Long): Seq[Exp1Row] = {
    val algos = Seq("BK-ALG+", "FilterV-", "FilterV", "VFree")
    names.map { n =>
      val spec = Datasets.byName(n)
      val g = loadGraph(spark, spec)
      Exp1Row(spec.name, algos.map(a => measured(Enumerators.run(a, g, spec.defaults, budgetMs, workers = 1))))
    }
  }

  def renderExp1(rows: Seq[Exp1Row]): String =
    render("Exp-1 (Fig. 5 shape) — response time (ms), INF = over budget",
      Seq("Dataset", "BK-ALG+", "FilterV-", "FilterV", "VFree", "#MFG"),
      rows.map { r =>
        val times = r.outcomes.map(o => if (o.timedOut) "INF" else fmt(o.stats.totalMs))
        Seq(r.dataset) ++ times ++ Seq(r.outcomes.last.count.toString)
      })

  /** Exp-6 (Fig. 10): the candidate filtering rule and verification method
    * ablations of FilterV.
    */
  final case class Exp6Row(dataset: String, outcomes: Seq[Enumerators.Outcome])

  def exp6(spark: SparkSession, names: Seq[String], budgetMs: Long): Seq[Exp6Row] = {
    val algos = Seq("FilterV", "FilterV-FR", "FilterV-VM", "FilterV-")
    names.zipWithIndex.map { case (n, i) =>
      val spec = Datasets.byName(n)
      val g = loadGraph(spark, spec)
      // JIT warm-up before the first measured dataset: all four code paths
      if (i == 0) algos.foreach(a => Enumerators.run(a, g, spec.defaults, budgetMs))
      Exp6Row(spec.name, algos.map(a => measured(Enumerators.run(a, g, spec.defaults, budgetMs))))
    }
  }

  def renderExp6(rows: Seq[Exp6Row]): String =
    render("Exp-6 (Fig. 10 shape) — FilterV ablations, response time (ms) [nodes/checks]",
      Seq("Dataset", "FilterV", "FilterV-FR", "FilterV-VM", "FilterV-"),
      rows.map { r =>
        Seq(r.dataset) ++ r.outcomes.map(o =>
          if (o.timedOut) "INF"
          else s"${fmt(o.stats.totalMs)} [${o.stats.nodes}/${o.stats.freqChecks}]")
      })

  /** Exp-5 (Fig. 9): GFCore pruning ratio and VFree vs VFree-. */
  final case class Exp5Row(dataset: String, prunedPct: Double, vfreeMs: Double, vfreeMinusMs: Double)

  def exp5(spark: SparkSession, names: Seq[String], budgetMs: Long): Seq[Exp5Row] =
    names.map { n =>
      val spec = Datasets.byName(n)
      val g = loadGraph(spark, spec)
      val vf = measured(Enumerators.vFree(g, spec.defaults, budgetMs = budgetMs, workers = 1))
      val vfMinus = measured(Enumerators.vFree(g, spec.defaults, useGraphFilter = false, budgetMs = budgetMs,
        workers = 1))
      Exp5Row(spec.name, vf.stats.pruneRatio * 100.0, vf.stats.totalMs, vfMinus.stats.totalMs)
    }

  def renderExp5(rows: Seq[Exp5Row]): String =
    render("Exp-5 (Fig. 9 shape) — graph filtering: edges pruned, VFree vs VFree-",
      Seq("Dataset", "edges pruned", "VFree (ms)", "VFree- (ms)"),
      rows.map(r => Seq(r.dataset, fmt(r.prunedPct) + "%", fmt(r.vfreeMs), fmt(r.vfreeMinusMs))))

  /** Exp-10 (Fig. 13): #MFGs under varying parameters on D14. */
  def exp10(spark: SparkSession, budgetMs: Long): Seq[(Params, Int)] = {
    val spec = Datasets.byName("D14")
    val g = loadGraph(spark, spec)
    val d = spec.defaults
    val settings =
      (d.tauU - 2 to d.tauU + 2).map(x => d.copy(tauU = x)) ++
      (d.tauV - 2 to d.tauV + 2).map(x => d.copy(tauV = x)) ++
      (d.lambda - 2 to d.lambda + 2).map(x => d.copy(lambda = x))
    settings.distinct.map(p => p -> Enumerators.vFree(g, p, budgetMs = budgetMs).count)
  }

  def renderExp10(rows: Seq[(Params, Int)]): String =
    render("Exp-10 (Fig. 13 shape) — number of MFGs on D14 stand-in",
      Seq("(tauU,tauV,lambda)", "#MFG"),
      rows.map { case (p, c) => Seq(s"(${p.tauU},${p.tauV},${p.lambda})", c.toString) })
}
