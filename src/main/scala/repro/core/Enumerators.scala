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

  /** A variant's switches: the FilterV kernel's ([[FilterV]]) or VFree's. */
  private sealed trait Variant
  private final case class FilterVFlags(candFilter: Boolean, arrayVerify: Boolean,
                                        validCandidates: Boolean) extends Variant
  private final case class VFreeFlags(graphFilter: Boolean) extends Variant

  /** The named variants of the paper's experimental section: the one table
    * that [[run]] dispatches on and [[filterV]] and [[vFree]] take their
    * names from. BK-ALG+ is FilterV- without the valid candidate set.
    */
  private val variants: Seq[(String, Variant)] = Seq(
    "BK-ALG+"    -> FilterVFlags(candFilter = false, arrayVerify = false, validCandidates = false),
    "FilterV-"   -> FilterVFlags(candFilter = false, arrayVerify = false, validCandidates = true),
    "FilterV-FR" -> FilterVFlags(candFilter = false, arrayVerify = true, validCandidates = true),
    "FilterV-VM" -> FilterVFlags(candFilter = true, arrayVerify = false, validCandidates = true),
    "FilterV"    -> FilterVFlags(candFilter = true, arrayVerify = true, validCandidates = true),
    "VFree-"     -> VFreeFlags(graphFilter = false),
    "VFree"      -> VFreeFlags(graphFilter = true))

  val algorithmNames: Seq[String] = variants.map(_._1)

  private def nameOf(v: Variant): String = variants.collectFirst { case (name, `v`) => name }.get

  private def timed(name: String, g: TemporalBipartiteGraph, budgetMs: Long)
                   (body: Deadline => (Set[Set[Long]], EnumStats)): Outcome = {
    val t0 = System.nanoTime()
    val (res, stats) =
      try { val (r, s) = body(new Deadline(budgetMs)); (Some(r), s) }
      catch { case _: TimeBudgetExceeded => (None, new EnumStats) }
    stats.totalNanos = System.nanoTime() - t0 // include graph-filter time
    stats.inputEdges = g.temporalEdgeCount
    Outcome(name, res, stats)
  }

  /** FilterV and its ablations (graph filter always applied, as in §5). */
  def filterV(g: TemporalBipartiteGraph, p: Params,
              useCandFilter: Boolean = true, useArrayVerify: Boolean = true,
              budgetMs: Long = 0): Outcome =
    filterVKernel(FilterVFlags(useCandFilter, useArrayVerify, validCandidates = true), g, p, budgetMs)

  /** The FilterV kernel on the GFCore-filtered graph. */
  private def filterVKernel(f: FilterVFlags, g: TemporalBipartiteGraph, p: Params, budgetMs: Long): Outcome =
    timed(nameOf(f), g, budgetMs) { dl =>
      val fg = GFCore(g, p)
      val alg = new FilterV(fg, p, f.candFilter, f.arrayVerify, dl, f.validCandidates)
      val res = alg.run()
      alg.stats.filteredEdges = fg.temporalEdgeCount
      (res, alg.stats)
    }

  /** VFree on the core in degree order ([[GFCore.degreeOrdered]], one build);
    * `useGraphFilter = false` gives Exp-5's VFree- ablation, reordered only.
    * The search runs on `workers` threads ([[VFree.run]]); the paper's timing
    * comparisons pass 1, because the other enumerators are single-threaded.
    */
  def vFree(g: TemporalBipartiteGraph, p: Params, useGraphFilter: Boolean = true,
            budgetMs: Long = 0, workers: Int = VFree.defaultWorkers): Outcome = {
    timed(nameOf(VFreeFlags(useGraphFilter)), g, budgetMs) { dl =>
      val fg = if (useGraphFilter) GFCore.degreeOrdered(g, p) else reorderByDegree(g)
      val alg = new VFree(fg, p, dl)
      val res = alg.run(workers)
      alg.stats.filteredEdges = fg.temporalEdgeCount
      (res, alg.stats)
    }
  }

  /** `g` with V numbered by ascending (structural degree, old id): the
    * graph's one derived-graph builder, `keepSlots`, with every slot alive.
    * It also drops the ids without an edge; graphs from `fromEdges` or
    * `fromDF`, and GFCore's cores, have none, so on them only V's numbering
    * changes.
    */
  def reorderByDegree(g: TemporalBipartiteGraph): TemporalBipartiteGraph =
    g.keepSlots(Array.fill(g.uSlotT.length + g.vSlotT.length)(1), byDegree = true)

  /** Dispatch by paper name (bench harness entry point); `workers` reaches
    * only the VFree variants.
    */
  def run(name: String, g: TemporalBipartiteGraph, p: Params, budgetMs: Long = 0,
          workers: Int = VFree.defaultWorkers): Outcome = variants.toMap.get(name) match {
    case Some(f: FilterVFlags)      => filterVKernel(f, g, p, budgetMs)
    case Some(VFreeFlags(filtered)) => vFree(g, p, filtered, budgetMs, workers)
    case None                       => throw new IllegalArgumentException(s"unknown algorithm: $name")
  }
}
