package repro.bench

import repro.SparkSpec
import repro.core.{Enumerators, Params}

/** Pins VFree's search on the stand-ins at one worker: nodes, Step-1 and
  * Step-3 touches, Theorem 4.1's checks, dominance, cover and lookahead
  * cuts, `maxDepth`, #MFG and the edges the graph filter keeps. Every count
  * is deterministic, so a change to the graph layout, the filter or the
  * kernel that alters the search shows up here, with each counter that moved
  * named beside its got and want values. VFree- runs on the whole reordered
  * graph, not the core.
  */
class VFreeStandInPinSpec extends SparkSpec {

  private val counters = Seq("nodes", "step-1 touches", "step-3 touches", "maximality checks", "dominance cuts",
    "cover cuts", "lookahead cuts", "maxDepth", "#MFG", "filtered edges")

  /** (dataset, setting, with the graph filter) → the `counters`, in order. */
  private val pinned: Seq[(String, (Int, Int, Int), Boolean, Seq[Long])] = Seq(
    ("D4", (3, 3, 3), true, Seq(21926L, 3426969L, 6160061L, 17971L, 1151L, 3117L, 3127L, 9L, 12698L, 16215L)),
    ("D12", (8, 4, 8), true, Seq(1800L, 1697362L, 1389641L, 121L, 23L, 70L, 120L, 6L, 41L, 69143L)),
    ("D12", (10, 6, 8), true, Seq(446L, 390352L, 941697L, 61L, 23L, 70L, 60L, 6L, 12L, 46362L)),
    ("D14", (10, 6, 8), true, Seq(1241L, 1199007L, 4137659L, 103L, 42L, 110L, 103L, 6L, 21L, 82390L)),
    ("D4", (3, 3, 3), false, Seq(24711L, 4650279L, 6764755L, 18872L, 2058L, 4433L, 3646L, 11L, 12698L, 33119L)),
  )

  test("VFree and VFree- keep their pinned counters on D4, D12, D14") {
    val mismatches = for {
      (dataset, (tauU, tauV, lambda), filtered, want) <- pinned
      o = Enumerators.vFree(Tables.loadGraph(spark, Datasets.byName(dataset)), Params(tauU, tauV, lambda),
        useGraphFilter = filtered, workers = 1)
      got = Seq(o.stats.nodes, o.stats.step1Touches, o.stats.step3Touches, o.stats.maxChecks,
        o.stats.dominatedCuts, o.stats.coverCuts, o.stats.lookaheadCuts, o.stats.maxDepth.toLong, o.count.toLong,
        o.stats.filteredEdges)
      moved = counters.indices.collect { case i if got(i) != want(i) => s"${counters(i)} got ${got(i)}, want ${want(i)}" }
      if moved.nonEmpty
    } yield s"${o.name} on $dataset at ($tauU,$tauV,$lambda): ${moved.mkString("; ")}"
    assert(mismatches.isEmpty, mismatches.mkString("\n"))
  }
}
