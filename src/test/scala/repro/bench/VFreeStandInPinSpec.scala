package repro.bench

import repro.SparkSpec
import repro.core.{Enumerators, Params}

/** Pins VFree's search on the stand-ins at one worker: nodes, Step-1 and
  * Step-3 touches, Theorem 4.1's checks and witness hits, dominance cuts,
  * `maxDepth`, #MFG and the edges the graph filter keeps.
  * Every count is deterministic, so a change to the graph layout, the
  * filter or the kernel that alters the search shows up here. VFree- runs
  * on the whole reordered graph, not the core.
  */
class VFreeStandInPinSpec extends SparkSpec {

  /** (dataset, setting, with the graph filter) → (nodes, step-1 touches,
    * step-3 touches, maximality checks, witness hits, dominance cuts,
    * maxDepth, #MFG, filtered edges).
    */
  private type Counters = (Long, Long, Long, Long, Long, Long, Int, Int, Long)
  private val pinned: Seq[(String, (Int, Int, Int), Boolean, Counters)] = Seq(
    ("D4", (3, 3, 3), true, (43121L, 5398461L, 7606524L, 21785L, 4213L, 9338L, 14, 12698, 16215L)),
    ("D12", (8, 4, 8), true, (5114L, 2253453L, 2919227L, 307L, 4L, 1834L, 10, 41, 69143L)),
    ("D12", (10, 6, 8), true, (3160L, 849703L, 2262495L, 156L, 0L, 1598L, 10, 12, 46362L)),
    ("D14", (10, 6, 8), true, (5886L, 1989459L, 7362237L, 265L, 0L, 2750L, 10, 21, 82390L)),
    ("D4", (3, 3, 3), false, (49240L, 7144870L, 8630746L, 21930L, 3262L, 13406L, 14, 12698, 33119L)),
  )

  test("VFree and VFree- keep their pinned counters on D4, D12, D14") {
    val mismatches = for {
      (dataset, (tauU, tauV, lambda), filtered, want) <- pinned
      o = Enumerators.vFree(Tables.loadGraph(spark, Datasets.byName(dataset)), Params(tauU, tauV, lambda),
        useGraphFilter = filtered, workers = 1)
      got = (o.stats.nodes, o.stats.step1Touches, o.stats.step3Touches, o.stats.maxChecks, o.stats.witnessHits,
        o.stats.dominatedCuts, o.stats.maxDepth, o.count, o.stats.filteredEdges)
      if got != want
    } yield s"${o.name} on $dataset at ($tauU,$tauV,$lambda): got $got, want $want"
    assert(mismatches.isEmpty, mismatches.mkString("\n"))
  }
}
