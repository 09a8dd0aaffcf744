package repro.core

import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.graph.GraphGen

/** VFree-specific invariants beyond the brute-force cross-validation. */
class VFreeSpec extends AnyFunSuite {

  test("runSeed over all seeds ≡ run (root branches are independent)") {
    for (seed <- 0 until 10) {
      val g = TestGraphs.random(7, 7, 4, 0.5, seed + 70)
      val p = Params(2, 2, 2)
      val full = new VFree(g, p, Deadline.unlimited).run()
      val engine = new VFree(g, p, Deadline.unlimited)
      val perSeed = (0 until g.nV).flatMap(engine.runSeed).toSet
      assert(perSeed == full, s"seed $seed")
    }
  }

  test("runSeed results are disjoint across seeds (no duplicate discovery)") {
    for (seed <- 0 until 10) {
      val g = TestGraphs.random(7, 7, 4, 0.55, seed + 90)
      val engine = new VFree(g, Params(2, 1, 2), Deadline.unlimited)
      val bySeeds = (0 until g.nV).map(engine.runSeed)
      val total = bySeeds.map(_.size).sum
      assert(bySeeds.flatten.toSet.size == total, s"seed $seed found duplicates")
    }
  }

  test("property: runSeed over every seed of the reordered core emits each MFG once") {
    GraphGen.check(forAll(GraphGen.graphs, GraphGen.params(4)) { (g, p) =>
      val rg = Enumerators.reorderByDegree(GFCore(g, p))
      val engine = new VFree(rg, p, Deadline.unlimited)
      val emitted = (0 until rg.nV).flatMap(engine.runSeed)
      val want = BruteForce.mfgLabels(g, p)
      ((emitted.size == emitted.distinct.size) :| s"$p: duplicates in $emitted") &&
        ((emitted.toSet == want) :| s"$p: got ${emitted.toSet}\nwant $want")
    }, tests = 2000)
  }

  test("counting arrays return to zero state between seeds") {
    val g = TestGraphs.random(6, 6, 4, 0.5, 33)
    val engine = new VFree(g, Params(2, 2, 2), Deadline.unlimited)
    val once = (0 until g.nV).flatMap(engine.runSeed).toSet
    val twice = (0 until g.nV).flatMap(engine.runSeed).toSet // same instance, rerun
    assert(once == twice)
  }

  test("results do not depend on seed processing order") {
    val g = TestGraphs.random(7, 7, 4, 0.5, 44)
    val p = Params(2, 1, 2)
    val fwd = {
      val e = new VFree(g, p, Deadline.unlimited)
      (0 until g.nV).flatMap(e.runSeed).toSet
    }
    val bwd = {
      val e = new VFree(g, p, Deadline.unlimited)
      (g.nV - 1 to 0 by -1).flatMap(e.runSeed).toSet
    }
    assert(fwd == bwd)
  }

  test("every reported MFG is frequent and size-feasible") {
    for (seed <- 0 until 10) {
      val g = TestGraphs.random(7, 8, 5, 0.45, seed + 110)
      val p = Params(2, 2, 2)
      val res = new VFree(g, p, Deadline.unlimited).run()
      val byLabel = g.vLabels.zipWithIndex.toMap
      for (s <- res) {
        assert(s.size >= p.tauV)
        val vs = s.map(byLabel).toArray.sorted
        assert(Frequency.NaiveFreq.isFrequent(g, vs, p.tauU, p.lambda), s"infrequent result $s")
      }
    }
  }

  test("stats.nodes counts one node per branch expansion") {
    val g = TestGraphs.planted
    val engine = new VFree(g, Params(2, 2, 3), Deadline.unlimited)
    engine.run()
    assert(engine.stats.nodes >= g.nV) // at least each root seed
  }

  test("deadline interrupts deep search") {
    val g = TestGraphs.random(12, 16, 6, 0.7, 7777)
    val engine = new VFree(g, Params(1, 1, 1), Deadline.ms(1))
    // either finishes immediately or throws — both acceptable; no hang
    try { engine.run(); succeed }
    catch { case _: TimeBudgetExceeded => succeed }
  }
}
