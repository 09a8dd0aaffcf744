package repro.bench

import repro.SparkSpec

/** Figure-shaped guard benches (Figs. 5, 9, 13): not tables, but they pin
  * the paper's headline claims — algorithm ordering, GFCore pruning power,
  * and MFG-count monotonicity — on the stand-ins.
  */
class Exp1ShapeBench extends SparkSpec {

  /** BK-ALG+'s search tree at each stand-in's defaults, by the name's first
    * word: (nodes, freqChecks).
    */
  private val baselineCounts: Map[String, (Long, Long)] = Map(
    "D1" -> (531L, 5174L), "D2" -> (740L, 5733L), "D3" -> (12114L, 207162L),
    "D4" -> (134116L, 3315338L), "D5" -> (9273L, 90329L), "D6" -> (27268L, 352169L),
    "D7" -> (17402L, 408786L), "D8" -> (27692L, 533400L), "D9" -> (28473L, 582780L),
    "D10" -> (42539L, 1174830L), "D11" -> (27117L, 547842L), "D12" -> (12290L, 337306L),
    "D13" -> (17643L, 700670L), "D14" -> (21960L, 1078904L), "D15" -> (97527L, 3249033L),
  )

  test("Exp-1 (Fig. 5) — response-time ordering across all stand-ins") {
    val rows = Tables.exp1(spark, Datasets.all.map(_.name), budgetMs = 60000)
    println(Tables.renderExp1(rows))
    // VFree must never time out, and on every dataset where FilterV- takes
    // meaningful time, VFree must not be slower than FilterV- by more than
    // noise (the paper's ordering: VFree ≤ FilterV ≤ FilterV- ≤ BK-ALG+).
    for (r <- rows) {
      val Seq(bk, fvMinus, fv, vfree) = r.outcomes
      assert(!vfree.timedOut, s"${r.dataset}: VFree timed out")
      assert(!fv.timedOut, s"${r.dataset}: FilterV timed out")
      for (o <- Seq(fvMinus, fv) if !o.timedOut)
        assert(o.results.get == vfree.results.get, s"${r.dataset}: ${o.name} result mismatch")
      if (!bk.timedOut) {
        assert(bk.results.get == vfree.results.get, s"${r.dataset}: BK-ALG+ result mismatch")
        assert((bk.stats.nodes, bk.stats.freqChecks) == baselineCounts(r.dataset.split(' ').head),
          s"${r.dataset}: BK-ALG+ search tree changed")
      }
      // On deep searches VFree wins by 5–10×; on the heavy-τ stand-ins the
      // post-filter searches are shallow and VFree ≈ FilterV- (±noise), so
      // the guard is a 2× envelope rather than strict dominance.
      if (!fvMinus.timedOut && fvMinus.stats.totalMs > 500)
        assert(vfree.stats.totalMs <= fvMinus.stats.totalMs * 2.0,
          s"${r.dataset}: VFree ${vfree.stats.totalMs}ms vs FilterV- ${fvMinus.stats.totalMs}ms")
    }
  }
}

class Exp6AblationBench extends SparkSpec {

  test("Exp-6 (Fig. 10) — candidate filter + verification ablations") {
    val rows = Tables.exp6(spark, Seq("D14", "D15"), budgetMs = 120000)
    println(Tables.renderExp6(rows))
    for (r <- rows) {
      val Seq(fv, fr, vm, minus) = r.outcomes
      assert(!fv.timedOut, s"${r.dataset}: FilterV timed out")
      for (o <- Seq(fr, vm, minus) if !o.timedOut)
        assert(o.results.get == fv.results.get, s"${r.dataset}: ${o.name} mismatch")
      // The wall-clock of these small searches is noisy at stand-in scale
      // (paper graphs are 400× larger); the deterministic signal of the
      // candidate filtering rule is its frequency-check count: the rule must
      // strictly reduce checks against the corresponding no-rule variant.
      if (!fr.timedOut)
        assert(fv.stats.freqChecks < fr.stats.freqChecks,
          s"${r.dataset}: rule did not reduce checks ${fv.stats.freqChecks} vs ${fr.stats.freqChecks}")
      if (!vm.timedOut && !minus.timedOut)
        assert(vm.stats.freqChecks <= minus.stats.freqChecks,
          s"${r.dataset}: rule increased naive checks")
    }
  }
}

class Exp5FilterBench extends SparkSpec {

  test("Exp-5 (Fig. 9) — GFCore pruning power and VFree vs VFree-") {
    val names = Seq("D12", "D13", "D14", "D15")
    val rows = Tables.exp5(spark, names, budgetMs = 120000)
    println(Tables.renderExp5(rows))
    for (r <- rows) {
      // the paper reports >90% pruning on the large datasets; the stand-ins
      // deliberately spend a large |E| share on *surviving* search structure
      // (block + planted groups), so the prunable fraction is bounded —
      // require a majority of the background+decoy share (>40%)
      assert(r.prunedPct > 40.0, s"${r.dataset}: only ${r.prunedPct}% pruned")
    }
  }
}

class Exp10CountBench extends SparkSpec {

  test("Exp-10 (Fig. 13) — number of MFGs under varying parameters on D14") {
    val rows = Tables.exp10(spark, budgetMs = 120000)
    println(Tables.renderExp10(rows))
    val byKey = rows.toMap
    val d = Datasets.byName("D14").defaults
    assert(byKey(d) > 0, "no MFGs at default parameters")
    // loosest vs tightest setting per parameter: counts shrink
    assert(byKey(d.copy(lambda = d.lambda - 2)) >= byKey(d.copy(lambda = d.lambda + 2)))
    assert(byKey(d.copy(tauU = d.tauU - 2)) >= byKey(d.copy(tauU = d.tauU + 2)))
    assert(byKey(d.copy(tauV = d.tauV - 2)) >= byKey(d.copy(tauV = d.tauV + 2)))
  }
}
