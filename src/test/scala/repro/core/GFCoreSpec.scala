package repro.core

import org.scalacheck.Prop
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.graph.{GraphGen, TemporalBipartiteGraph}
import repro.graph.GraphEdges._

class GFCoreSpec extends AnyFunSuite {

  private def checkDefinition(g: TemporalBipartiteGraph, filtered: TemporalBipartiteGraph, p: Params): Unit = {
    // i) every surviving u is in the (τ_V, τ_U)-core of ≥ 1 snapshot;
    // ii) every surviving v in ≥ λ snapshots. Cores of the filtered graph
    // itself: surviving snapshots must already satisfy the degree bounds.
    for (t <- 0 until filtered.nT) {
      for (u <- 0 until filtered.nU if filtered.mDegU(u, t) > 0)
        assert(filtered.mDegU(u, t) >= p.tauV, s"u=$u t=$t mdeg=${filtered.mDegU(u, t)}")
      for (v <- 0 until filtered.nV if filtered.mDegV(v, t) > 0)
        assert(filtered.mDegV(v, t) >= p.tauU, s"v=$v t=$t")
    }
    for (v <- 0 until filtered.nV) {
      val s = (0 until filtered.nT).count(t => filtered.mDegV(v, t) > 0)
      assert(s >= p.lambda, s"v=$v survives only $s snapshots < λ=${p.lambda}")
    }
  }

  test("complete graph repeated at λ timestamps survives intact") {
    val edges = for { u <- 0 to 2; v <- 0 to 2; t <- 0 to 2 } yield (u, v, t)
    val g = TestGraphs.of(edges: _*)
    val f = GFCore(g, Params(2, 2, 3))
    assert(f.temporalEdgeCount == g.temporalEdgeCount)
  }

  test("graph below the frequency constraint is fully pruned") {
    val edges = for { u <- 0 to 2; v <- 0 to 2 } yield (u, v, 0)
    val g = TestGraphs.of(edges: _*)
    val f = GFCore(g, Params(2, 2, 2)) // only one timestamp < λ=2
    assert(f.temporalEdgeCount == 0)
  }

  test("sparse noise around a planted group is pruned, group kept") {
    val g = TestGraphs.planted
    val f = GFCore(g, Params(2, 2, 3))
    assert(f.vLabels.toSet == Set(10L, 11L, 12L))
    checkDefinition(g, f, Params(2, 2, 3))
  }

  test("λ-cascade: dropping a v vertex unravels a snapshot core") {
    // v0 appears in 2 snapshot cores only; its removal drops u1's degree at t0
    val edges = Seq(
      // t0: u0,u1 × v0,v1 complete
      (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0),
      // t1: u0,u1 × v0,v1 complete
      (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1),
      // t2: u0,u1 × v1,v2 complete (v0 absent)
      (0, 1, 2), (0, 2, 2), (1, 1, 2), (1, 2, 2),
    )
    val g = TestGraphs.of(edges: _*)
    val p = Params(2, 2, 3)
    // v0 in 2 cores (<3) → removed; then t0/t1 cores collapse (v1 alone has
    // mdeg 2 but u's drop to degree 1 < τ_V=2) → v1 left with only t2 → all gone
    val f = GFCore(g, p)
    assert(f.temporalEdgeCount == 0)
  }

  test("τ_U = 1: a v whose m-degree cascades to 0 loses that snapshot for λ") {
    // v2 is in 1 < λ snapshot → u0 leaves t3 → v1's δ(t3) falls 1 → 0, so v1
    // is left with 2 < λ snapshots → u0 leaves t0/t1 → nothing survives
    val g = TestGraphs.of((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 2), (0, 1, 3), (0, 2, 3))
    val p = Params(1, 2, 3)
    assert(GFCoreFixpoint.filterEdges(g, p).isEmpty)
    assert(GFCore.filterEdges(g, p).isEmpty)
  }

  for {
    seed <- 0 until 15
    p <- Seq(Params(1, 1, 1), Params(2, 2, 2), Params(2, 1, 3))
  } {
    test(s"definition + MFG-soundness on random graphs (seed $seed, $p)") {
      val g = TestGraphs.random(6, 6, 5, 0.4, seed + 900)
      val f = GFCore(g, p)
      checkDefinition(g, f, p)
      // Lemma 3.1: no MFG vertex may be pruned
      val mfgVertices = BruteForce.mfgLabels(g, p).flatten
      assert(mfgVertices.subsetOf(f.vLabels.toSet),
        s"pruned MFG vertices: ${mfgVertices -- f.vLabels.toSet}")
    }
  }

  for {
    seed <- 0 until 15
    p <- Seq(Params(1, 1, 1), Params(2, 2, 2), Params(2, 1, 3), Params(3, 2, 2))
  } {
    test(s"Algorithm-2 cascade ≡ reference fixpoint (seed $seed, $p)") {
      val g = TestGraphs.random(7, 7, 5, 0.45, seed + 7000)
      assert(GFCore.filterEdges(g, p).toSet == GFCoreFixpoint.filterEdges(g, p).toSet)
    }
  }

  test("Algorithm-2 cascade ≡ reference fixpoint on planted and tiny graphs") {
    for (g <- Seq(TestGraphs.planted, TestGraphs.tiny); p <- Seq(Params(2, 2, 2), Params(2, 2, 3)))
      assert(GFCore.filterEdges(g, p).toSet == GFCoreFixpoint.filterEdges(g, p).toSet)
  }

  for (seed <- 0 until 5) {
    test(s"idempotence: GFCore(GFCore(g)) = GFCore(g) (seed $seed)") {
      val g = TestGraphs.random(7, 7, 4, 0.45, seed + 42)
      val p = Params(2, 2, 2)
      val once = GFCore(g, p)
      val twice = GFCore(once, p)
      assert(once.labeledEdges.toSet == twice.labeledEdges.toSet)
    }
  }

  // About a quarter of the cases keep some edges at `params(4)`, hence the
  // 1000 cases per property.
  test("property: cascade ≡ reference fixpoint (duplicates, isolated vertices, |T| ≤ 70)") {
    GraphGen.check(forAll(GraphGen.graphs, GraphGen.params(4)) { (g, p) =>
      val got = GFCore.filterEdges(g, p).toSet
      val want = GFCoreFixpoint.filterEdges(g, p).toSet
      (got == want) :| s"$p: got $got\nwant $want"
    }, tests = 1000)
  }

  test("property: raising τ_U, τ_V or λ by one keeps a subset of the edges") {
    GraphGen.check(forAll(GraphGen.graphs, GraphGen.params(4)) { (g, p) =>
      val kept = GFCore.filterEdges(g, p).toSet
      val raised = Seq(p.copy(tauU = p.tauU + 1), p.copy(tauV = p.tauV + 1), p.copy(lambda = p.lambda + 1))
      Prop.all(raised.map(q => GFCore.filterEdges(g, q).toSet.subsetOf(kept) :| s"$p -> $q"): _*)
    }, tests = 1000)
  }
}
