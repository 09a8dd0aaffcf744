package repro.core

import org.scalacheck.Prop
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.graph.GraphGen
import repro.graph.GraphGen.check

/** The central correctness suite: every algorithm variant of the paper must
  * return exactly the brute-force MFG set on every graph and parameter
  * setting. This covers BK-ALG+ (baseline), FilterV and all three ablations,
  * and VFree with/without graph filter (both VFree variants reorder V by
  * degree; a dedicated test runs the VFree kernel on ids in label order).
  */
class EnumeratorsSpec extends AnyFunSuite {

  private val variants = Enumerators.algorithmNames

  private def checkAll(g: repro.graph.TemporalBipartiteGraph, p: Params, ctx: String): Unit = {
    val expected = BruteForce.mfgLabels(g, p)
    for (name <- variants) {
      val got = Enumerators.run(name, g, p).results.get
      assert(got == expected,
        s"$name mismatch on $ctx with $p:\n  got      ${got.toSeq.map(_.toSeq.sorted)}\n" +
        s"  expected ${expected.toSeq.map(_.toSeq.sorted)}")
    }
  }

  test("tiny graph: all variants match hand-computed MFGs") {
    val g = TestGraphs.tiny
    for (name <- variants) {
      assert(Enumerators.run(name, g, Params(2, 2, 2)).results.get == Set(Set(0L, 1L, 2L)), name)
      assert(Enumerators.run(name, g, Params(2, 2, 3)).results.get == Set(Set(0L, 1L)), name)
      assert(Enumerators.run(name, g, Params(3, 2, 3)).results.get == Set.empty[Set[Long]], name)
    }
  }

  test("planted graph: all variants recover exactly the planted group") {
    val g = TestGraphs.planted
    for (name <- variants)
      assert(Enumerators.run(name, g, Params(2, 2, 3)).results.get == Set(Set(10L, 11L, 12L)), name)
  }

  test("paper Example 2.2 shape: overlapping MFGs with shared vertices") {
    // engineered so two MFGs overlap on one vertex
    val edges = Seq(
      // {v0,v1} with {u0,u1} at t0,t1,t2
      (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0),
      (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1),
      (0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2),
      // {v1,v2} with {u2,u3} at t0,t1,t2 (different U side!)
      (2, 1, 0), (2, 2, 0), (3, 1, 0), (3, 2, 0),
      (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1),
      (2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2),
    )
    val g = TestGraphs.of(edges: _*)
    val p = Params(2, 2, 3)
    val expected = BruteForce.mfgLabels(g, p)
    assert(expected == Set(Set(0L, 1L), Set(1L, 2L)))
    checkAll(g, p, "overlap graph")
  }

  for {
    seed <- 0 until 20
    p <- Seq(Params(1, 1, 1), Params(2, 2, 2), Params(2, 1, 2), Params(1, 2, 3))
  } {
    test(s"all variants ≡ brute force (random seed $seed, $p)") {
      val g = TestGraphs.random(6, 7, 5, 0.4, seed * 131 + 7)
      checkAll(g, p, s"random($seed)")
    }
  }

  for (seed <- 0 until 8) {
    test(s"all variants ≡ brute force on denser graphs (seed $seed)") {
      val g = TestGraphs.random(8, 8, 4, 0.6, seed * 977 + 3)
      checkAll(g, Params(2, 2, 2), s"dense($seed)")
      checkAll(g, Params(3, 2, 2), s"dense($seed)")
    }
  }

  test("every variant ≡ brute force on generated graphs") {
    // isolated vertices, empty timestamps and |T| up to 70: VFree- compacts them away
    check(forAll(GraphGen.graphs, GraphGen.params(3)) { (g, p) =>
      val want = BruteForce.mfgLabels(g, p)
      Prop.all(variants.map(n => (Enumerators.run(n, g, p).results.get == want) :| s"$n at $p"): _*)
    })
  }

  test("VFree without ID reorder is still correct") {
    for (seed <- 0 until 10) {
      val g = TestGraphs.random(7, 7, 4, 0.5, seed + 5000)
      val p = Params(2, 2, 2)
      val got = new VFree(GFCore(g, p), p, Deadline.unlimited).run()
      assert(got == BruteForce.mfgLabels(g, p), s"seed $seed")
    }
  }

  test("FilterV without the valid candidate set ≡ brute force under both other toggles") {
    for (seed <- 0 until 10; p <- Seq(Params(1, 1, 1), Params(2, 2, 2), Params(1, 3, 2))) {
      val g = TestGraphs.random(7, 7, 4, 0.5, seed + 7000)
      val expected = BruteForce.mfgLabels(g, p)
      for (candFilter <- Seq(false, true); arrayVerify <- Seq(false, true)) {
        val alg = new FilterV(GFCore(g, p), p, candFilter, arrayVerify, Deadline.unlimited,
          useValidCandidates = false)
        assert(alg.run() == expected, s"seed $seed, $p, useCandFilter=$candFilter, useArrayVerify=$arrayVerify")
      }
    }
  }

  test("VFree- (no graph filter) equals VFree") {
    for (seed <- 0 until 10) {
      val g = TestGraphs.random(7, 7, 4, 0.5, seed + 6000)
      val p = Params(2, 2, 2)
      assert(Enumerators.vFree(g, p).results.get ==
             Enumerators.vFree(g, p, useGraphFilter = false).results.get, s"seed $seed")
    }
  }

  test("time budget exhaustion reports INF instead of wrong results") {
    val g = TestGraphs.random(10, 14, 6, 0.7, 1234)
    // 0ms-equivalent budget: 1ms is too tight for this graph
    val out = Enumerators.run("BK-ALG+", g, Params(1, 1, 1), budgetMs = 1)
    // either it legitimately finished very fast, or it reports timeout
    assert(out.timedOut || out.results.get == BruteForce.mfgLabels(g, Params(1, 1, 1)))
  }

  test("stats are populated: nodes, total time, edges") {
    val g = TestGraphs.planted
    val out = Enumerators.filterV(g, Params(2, 2, 3))
    assert(out.stats.nodes > 0)
    assert(out.stats.totalNanos > 0)
    assert(out.stats.inputEdges == g.temporalEdgeCount)
    assert(out.stats.filteredEdges <= out.stats.inputEdges)
    assert(out.stats.pruneRatio >= 0.0 && out.stats.pruneRatio <= 1.0)
  }

  test("CM instrumentation: FilterV and VFree accumulate cm time") {
    val g = TestGraphs.random(8, 8, 5, 0.5, 77)
    val p = Params(2, 2, 2)
    val fv = Enumerators.filterV(g, p)
    val vf = Enumerators.vFree(g, p)
    assert(fv.stats.cmNanos > 0)
    assert(vf.stats.cmNanos > 0)
    assert(fv.stats.cmNanos <= fv.stats.totalNanos)
  }

  test("unknown algorithm name is rejected") {
    intercept[IllegalArgumentException] {
      Enumerators.run("nope", TestGraphs.tiny, Params(1, 1, 1))
    }
  }
}
