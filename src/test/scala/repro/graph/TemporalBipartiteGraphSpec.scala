package repro.graph

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.{Enumerators, GFCore, Params}
import repro.graph.GraphEdges._

class TemporalBipartiteGraphSpec extends AnyFunSuite {

  private val g = TestGraphs.of(
    (1, 10, 0), (1, 11, 0), (2, 10, 0),
    (1, 10, 1), (2, 11, 1),
    (1, 10, 0), // duplicate — must be dropped
  )

  test("dimensions from labels") {
    assert(g.nU == 2 && g.nV == 2 && g.nT == 2)
    assert(g.uLabels.toSeq == Seq(1L, 2L))
    assert(g.vLabels.toSeq == Seq(10L, 11L))
    assert(g.tLabels.toSeq == Seq(0L, 1L))
  }

  test("duplicate temporal edges are dropped") {
    assert(g.temporalEdgeCount == 5)
  }

  test("static edge count collapses timestamps") {
    // static edges: (1,10), (1,11), (2,10), (2,11)
    assert(StaticIndex(g).uNbr.length == 4)
  }

  test("structural degrees (Definition 2.1)") {
    // d(w, G): offset differences in the static index
    val s = StaticIndex(g)
    assert(s.uOff(1) - s.uOff(0) == 2) // u=1 connects v=10,11
    assert(s.uOff(2) - s.uOff(1) == 2) // u=2 connects v=10 (t0) and v=11 (t1)
    assert(s.vOff.toSeq == Seq(0, 2, 4)) // v=10 and v=11 have two each
  }

  test("momentary degrees and neighbors (Definition 2.2)") {
    assert(g.mDegU(0, 0) == 2) // u=1 at t=0: v=10,11
    assert(g.mDegU(0, 1) == 1) // u=1 at t=1: v=10
    val f = GraphFields(g)
    assert(f.gammaV(0)(0) == Seq(0, 1)) // v=10 at t=0: u=1,2
    assert(f.gammaV(1)(1) == Seq(1))    // v=11 at t=1: u=2
  }

  test("per-edge timestamp lists are sorted and complete") {
    // u=1 (internal 0) — v=10 (internal 0) at timestamps 0 and 1
    val f = GraphFields(g)
    val i = f.uAdj(0).indexOf(0)
    assert(f.uAdjTs(0)(i) == Seq(0, 1))
  }

  test("internalEdges round-trips the edge set") {
    assert(g.internalEdges.toSet ==
      Set((0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)))
  }

  test("labeledEdges maps back to original labels") {
    assert(g.labeledEdges.toSet ==
      Set((1L, 10L, 0L), (1L, 11L, 0L), (2L, 10L, 0L), (1L, 10L, 1L), (2L, 11L, 1L)))
  }

  test("collapseStatic merges all snapshots into t=0") {
    val s = g.collapseStatic
    assert(s.nT == 1)
    assert(s.temporalEdgeCount == 4)
    assert(s.mDegU(0, 0) == 2 && s.mDegU(1, 0) == 2)
  }

  test("fromInternal allows isolated vertices and empty timestamps") {
    val h = TemporalBipartiteGraph.fromInternal(Array(0), Array(0), Array(0),
      Array(0L, 1L, 2L), Array(0L, 1L, 2L), Array(0L, 1L, 2L))
    val s = StaticIndex(h)
    assert(s.uOff(3) == s.uOff(2) && s.vOff(3) == s.vOff(2) && h.mDegV(0, 2) == 0)
    assert(h.temporalEdgeCount == 1)
  }

  test("fromInternal rejects out-of-range edges") {
    intercept[IllegalArgumentException] {
      TemporalBipartiteGraph.fromInternal(Array(0), Array(5), Array(0), Array(0L), Array(0L), Array(0L))
    }
  }

  test("an edgeless 2^16 × 2^15 graph builds and yields ∅") {
    // 65,536 timestamps × 32,768 U vertices, nT·(nU + nV) = 2^31: no table is
    // sized by it, so only |E| bounds the graph; GFCore and VFree find ∅
    val e = Array.emptyIntArray
    val h = TemporalBipartiteGraph.fromInternal(e, e, e, new Array[Long](32768), Array.emptyLongArray,
      new Array[Long](65536))
    assert(h.nT == 65536 && h.nU == 32768 && h.temporalEdgeCount == 0)
    val p = Params(1, 1, 1)
    assert(GFCore.filterEdges(h, p).isEmpty && GFCore(h, p).temporalEdgeCount == 0)
    assert(Enumerators.vFree(h, p).results.contains(Set.empty))
    assert(Enumerators.vFree(h, p, useGraphFilter = false).results.contains(Set.empty))
  }

  for (seed <- 0 until 10) {
    test(s"random graph invariants (seed $seed)") {
      val g = TestGraphs.random(5, 6, 4, 0.3, seed)
      val f = GraphFields(g)
      // adjacency symmetry between the two CSR views
      for (u <- 0 until g.nU; v <- f.uAdj(u))
        assert(f.vAdj(v).contains(u), s"v $v missing back-edge to u $u")
      // snapshot adjacency consistent with timestamp lists
      for (u <- 0 until g.nU; (v, i) <- f.uAdj(u).zipWithIndex; t <- f.uAdjTs(u)(i)) {
        assert(f.gammaU(t)(u).contains(v))
        assert(f.gammaV(t)(v).contains(u))
      }
      // sorted adjacency
      for (t <- 0 until g.nT; u <- 0 until g.nU)
        assert(f.gammaU(t)(u) == f.gammaU(t)(u).sorted)
    }
  }
}
