package repro.bench

import repro.SparkSpec
import repro.core.{Enumerators, Params}

/** Pins VFree's search on the stand-ins at one worker: nodes, Step-1 and
  * Step-3 touches, Theorem 4.1's checks and witness hits, `maxDepth`, #MFG
  * and the edges the graph filter keeps.
  * Every count is deterministic, so a change to the graph layout, the
  * filter or the kernel that alters the search shows up here. VFree- runs
  * on the whole reordered graph, not the core.
  */
class VFreeStandInPinSpec extends SparkSpec {

  /** (dataset, setting, with the graph filter) → (nodes, step-1 touches,
    * step-3 touches, maximality checks, witness hits, maxDepth, #MFG,
    * filtered edges).
    */
  private val pinned: Seq[(String, (Int, Int, Int), Boolean, (Long, Long, Long, Long, Long, Int, Int, Long))] = Seq(
    ("D4", (3, 3, 3), true, (134113L, 12266959L, 10703724L, 74785L, 57213L, 14, 12698, 16215L)),
    ("D12", (8, 4, 8), true, (14145L, 3665839L, 7972949L, 5687L, 5384L, 10, 41, 69143L)),
    ("D12", (10, 6, 8), true, (10466L, 1992889L, 6862093L, 3072L, 2916L, 10, 12, 46362L)),
    ("D14", (10, 6, 8), true, (18732L, 3999051L, 20402775L, 5376L, 5111L, 10, 21, 82390L)),
    ("D4", (3, 3, 3), false, (134234L, 13926138L, 11795729L, 75388L, 56720L, 14, 12698, 33119L)),
  )

  test("VFree and VFree- keep their pinned counters on D4, D12, D14") {
    val mismatches = for {
      (dataset, (tauU, tauV, lambda), filtered, want) <- pinned
      o = Enumerators.vFree(Tables.loadGraph(spark, Datasets.byName(dataset)), Params(tauU, tauV, lambda),
        useGraphFilter = filtered, workers = 1)
      got = (o.stats.nodes, o.stats.step1Touches, o.stats.step3Touches, o.stats.maxChecks, o.stats.witnessHits,
        o.stats.maxDepth, o.count, o.stats.filteredEdges)
      if got != want
    } yield s"${o.name} on $dataset at ($tauU,$tauV,$lambda): got $got, want $want"
    assert(mismatches.isEmpty, mismatches.mkString("\n"))
  }
}
