package repro.graph

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs

class AlphaBetaCoreSpec extends AnyFunSuite {

  /** Reference greatest fixpoint by repeated full rescan (obviously correct). */
  private def reference(g: TemporalBipartiteGraph, t: Int, alpha: Int, beta: Int,
                        uAlive: Array[Boolean], vAlive: Array[Boolean]): (Set[Int], Set[Int]) = {
    val f = GraphFields(g); val gu = f.gammaU(t); val gv = f.gammaV(t)
    var us = (0 until g.nU).filter(u => uAlive(u) && gu(u).exists(vAlive)).toSet
    var vs = (0 until g.nV).filter(v => vAlive(v) && gv(v).nonEmpty).toSet
    var changed = true
    while (changed) {
      changed = false
      val us2 = us.filter(u => gu(u).count(vs) >= alpha)
      val vs2 = vs.filter(v => gv(v).count(us2) >= beta)
      if (us2 != us || vs2 != vs) { us = us2; vs = vs2; changed = true }
    }
    (us, vs)
  }

  test("complete 2x2 snapshot survives (2,2)-core") {
    val g = TestGraphs.of((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    val (u, v) = AlphaBetaCore.snapshot(g, 0, 2, 2)
    assert(u.count(identity) == 2 && v.count(identity) == 2)
  }

  test("star snapshot dies under (2,2)-core") {
    val g = TestGraphs.of((0, 0, 0), (0, 1, 0), (0, 2, 0))
    val (u, v) = AlphaBetaCore.snapshot(g, 0, 2, 2)
    assert(u.forall(!_) && v.forall(!_))
  }

  test("cascade: removing a leaf can unravel the snapshot") {
    // u0-{v0,v1}, u1-{v0,v1}, u2-{v2}: (2,2)-core keeps only the 2x2 block
    val g = TestGraphs.of((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 2, 0))
    val (u, v) = AlphaBetaCore.snapshot(g, 0, 2, 2)
    assert(u.zipWithIndex.filter(_._1).map(_._2).toSeq == Seq(0, 1))
    assert(v.zipWithIndex.filter(_._1).map(_._2).toSeq == Seq(0, 1))
  }

  test("restriction masks are respected") {
    val g = TestGraphs.of((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    val vAlive = Array(true, false) // kill v1 externally
    val (u, v) = AlphaBetaCore.snapshot(g, 0, 1, 2, Array(true, true), vAlive)
    // each u now has degree 1 < α is false (α=1): u0,u1 keep v0; v0 has degree 2 ≥ β
    assert(u.count(identity) == 2)
    assert(v.toSeq == Seq(true, false))
  }

  test("input masks are not mutated") {
    val g = TestGraphs.of((0, 0, 0))
    val ua = Array(true); val va = Array(true)
    AlphaBetaCore.snapshot(g, 0, 5, 5, ua, va)
    assert(ua(0) && va(0))
  }

  for {
    seed <- 0 until 12
    (alpha, beta) <- Seq((1, 1), (2, 2), (2, 3))
  } {
    test(s"matches reference fixpoint (seed $seed, alpha=$alpha, beta=$beta)") {
      val g = TestGraphs.random(6, 6, 3, 0.4, seed + 100)
      val rng = new scala.util.Random(seed)
      val uAlive = Array.fill(g.nU)(rng.nextDouble() > 0.15)
      val vAlive = Array.fill(g.nV)(rng.nextDouble() > 0.15)
      for (t <- 0 until g.nT) {
        val (u, v) = AlphaBetaCore.snapshot(g, t, alpha, beta, uAlive, vAlive)
        val (ru, rv) = reference(g, t, alpha, beta, uAlive, vAlive)
        assert(u.zipWithIndex.filter(_._1).map(_._2).toSet == ru, s"U mismatch at t=$t")
        assert(v.zipWithIndex.filter(_._1).map(_._2).toSet == rv, s"V mismatch at t=$t")
      }
    }
  }
}
