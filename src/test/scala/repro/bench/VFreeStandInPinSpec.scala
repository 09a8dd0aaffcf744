package repro.bench

import repro.SparkSpec
import repro.core.{Enumerators, Params}

/** Pins VFree's search on the stand-ins at one worker: nodes, Step-1 and
  * Step-3 touches, Theorem 4.1's checks and witness hits, dominance and
  * cover cuts, `maxDepth`, #MFG and the edges the graph filter keeps.
  * Every count is deterministic, so a change to the graph layout, the
  * filter or the kernel that alters the search shows up here. VFree- runs
  * on the whole reordered graph, not the core.
  */
class VFreeStandInPinSpec extends SparkSpec {

  /** (dataset, setting, with the graph filter) → (nodes, step-1 touches,
    * step-3 touches, maximality checks, witness hits, dominance cuts, cover
    * cuts, maxDepth, #MFG, filtered edges).
    */
  private type Counters = (Long, Long, Long, Long, Long, Long, Long, Int, Int, Long)
  private val pinned: Seq[(String, (Int, Int, Int), Boolean, Counters)] = Seq(
    ("D4", (3, 3, 3), true, (28223L, 3982786L, 6572816L, 18378L, 1534L, 1462L, 6932L, 14, 12698, 16215L)),
    ("D12", (8, 4, 8), true, (2625L, 1841211L, 1965522L, 131L, 1L, 176L, 1419L, 10, 41, 69143L)),
    ("D12", (10, 6, 8), true, (1061L, 500345L, 1413633L, 70L, 0L, 157L, 1149L, 10, 12, 46362L)),
    ("D14", (10, 6, 8), true, (2327L, 1394943L, 4983085L, 120L, 0L, 293L, 1953L, 10, 21, 82390L)),
    ("D4", (3, 3, 3), false, (31951L, 5285116L, 7422138L, 19131L, 1578L, 2606L, 8788L, 14, 12698, 33119L)),
  )

  test("VFree and VFree- keep their pinned counters on D4, D12, D14") {
    val mismatches = for {
      (dataset, (tauU, tauV, lambda), filtered, want) <- pinned
      o = Enumerators.vFree(Tables.loadGraph(spark, Datasets.byName(dataset)), Params(tauU, tauV, lambda),
        useGraphFilter = filtered, workers = 1)
      got = (o.stats.nodes, o.stats.step1Touches, o.stats.step3Touches, o.stats.maxChecks, o.stats.witnessHits,
        o.stats.dominatedCuts, o.stats.coverCuts, o.stats.maxDepth, o.count, o.stats.filteredEdges)
      if got != want
    } yield s"${o.name} on $dataset at ($tauU,$tauV,$lambda): got $got, want $want"
    assert(mismatches.isEmpty, mismatches.mkString("\n"))
  }
}
