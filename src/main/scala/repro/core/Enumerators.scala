package repro.core

import repro.graph.TemporalBipartiteGraph

/** Facade wiring the paper's algorithm variants exactly as benchmarked in
  * Section 5: every variant except VFree- gets the GFCore graph filter;
  * both VFree variants get the ascending-structural-degree ID reorder.
  */
object Enumerators {

  /** Outcome of one enumeration run. `results` is None on time-budget
    * exhaustion (the paper's INF).
    */
  final case class Outcome(name: String, results: Option[Set[Set[Long]]], stats: EnumStats) {
    def timedOut: Boolean = results.isEmpty
    def count: Int = results.map(_.size).getOrElse(-1)
  }

  /** The named variants of the paper's experimental section. */
  val algorithmNames: Seq[String] =
    Seq("BK-ALG+", "FilterV-", "FilterV-FR", "FilterV-VM", "FilterV", "VFree-", "VFree")

  private def timed(name: String, g: TemporalBipartiteGraph, budgetMs: Long)
                   (body: Deadline => (Set[Set[Long]], EnumStats)): Outcome = {
    val t0 = System.nanoTime()
    try {
      val (res, stats) = body(new Deadline(budgetMs))
      stats.totalNanos = System.nanoTime() - t0 // include graph-filter time
      stats.inputEdges = g.temporalEdgeCount
      Outcome(name, Some(res), stats)
    } catch {
      case _: TimeBudgetExceeded =>
        val s = new EnumStats
        s.totalNanos = System.nanoTime() - t0
        s.inputEdges = g.temporalEdgeCount
        Outcome(name, None, s)
    }
  }

  /** BK-ALG+ — the BK baseline on the GFCore-filtered graph. */
  def bkAlgPlus(g: TemporalBipartiteGraph, p: Params, budgetMs: Long = 0): Outcome =
    timed("BK-ALG+", g, budgetMs) { dl =>
      val fg = GFCore(g, p)
      val alg = new BkAlg(fg, p, dl)
      val res = alg.run()
      alg.stats.filteredEdges = fg.temporalEdgeCount
      (res, alg.stats)
    }

  /** FilterV and its ablations (graph filter always applied, as in §5). */
  def filterV(g: TemporalBipartiteGraph, p: Params,
              useCandFilter: Boolean = true, useArrayVerify: Boolean = true,
              budgetMs: Long = 0): Outcome = {
    val name = (useCandFilter, useArrayVerify) match {
      case (true, true)   => "FilterV"
      case (false, true)  => "FilterV-FR"
      case (true, false)  => "FilterV-VM"
      case (false, false) => "FilterV-"
    }
    timed(name, g, budgetMs) { dl =>
      val fg = GFCore(g, p)
      val alg = new FilterV(fg, p, useCandFilter, useArrayVerify, dl)
      val res = alg.run()
      alg.stats.filteredEdges = fg.temporalEdgeCount
      (res, alg.stats)
    }
  }

  /** VFree (graph filter, then ID reorder); `useGraphFilter = false` gives
    * the VFree- ablation of Exp-5. The search runs on `workers` threads
    * ([[VFree.run]]); the paper's timing comparisons pass 1, because the
    * other enumerators are single-threaded.
    */
  def vFree(g: TemporalBipartiteGraph, p: Params, useGraphFilter: Boolean = true,
            budgetMs: Long = 0, workers: Int = VFree.defaultWorkers): Outcome = {
    val name = if (useGraphFilter) "VFree" else "VFree-"
    timed(name, g, budgetMs) { dl =>
      val fg = if (useGraphFilter) GFCore(g, p) else g
      val alg = new VFree(reorderByDegree(fg), p, dl)
      val res = alg.run(workers)
      alg.stats.filteredEdges = fg.temporalEdgeCount
      (res, alg.stats)
    }
  }

  /** Ascending structural-degree relabelling of V (ties by original id):
    * the builder's stable counting sort keyed by d(v) ≤ nU.
    */
  def reorderByDegree(g: TemporalBipartiteGraph): TemporalBipartiteGraph =
    g.relabelV(TemporalBipartiteGraph.countingSort(Array.range(0, g.nV), g.nU + 1)(g.sDegV)._1)

  /** Dispatch by paper name (bench harness entry point); `workers` reaches
    * only the VFree variants.
    */
  def run(name: String, g: TemporalBipartiteGraph, p: Params, budgetMs: Long = 0,
          workers: Int = VFree.defaultWorkers): Outcome = name match {
    case "BK-ALG+"    => bkAlgPlus(g, p, budgetMs)
    case "FilterV"    => filterV(g, p, useCandFilter = true, useArrayVerify = true, budgetMs)
    case "FilterV-FR" => filterV(g, p, useCandFilter = false, useArrayVerify = true, budgetMs)
    case "FilterV-VM" => filterV(g, p, useCandFilter = true, useArrayVerify = false, budgetMs)
    case "FilterV-"   => filterV(g, p, useCandFilter = false, useArrayVerify = false, budgetMs)
    case "VFree"      => vFree(g, p, useGraphFilter = true, budgetMs, workers)
    case "VFree-"     => vFree(g, p, useGraphFilter = false, budgetMs, workers)
    case other        => throw new IllegalArgumentException(s"unknown algorithm: $other")
  }
}
