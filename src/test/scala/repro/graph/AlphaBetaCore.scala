package repro.graph

import scala.collection.mutable

/** (α, β)-core of one bipartite snapshot (Definition 3.1).
  *
  * Survivors are the unique greatest subgraph where every u ∈ U has degree
  * ≥ α and every v ∈ V has degree ≥ β, computed by iterative peeling in
  * O(|E_t|).
  */
object AlphaBetaCore {

  /** Peels snapshot `t` of `g`, restricted to vertices flagged alive in
    * `uAlive` / `vAlive` (callers pass all-true for a plain core). Returns
    * (surviving U mask, surviving V mask) for this snapshot; input masks are
    * not mutated.
    */
  def snapshot(g: TemporalBipartiteGraph, t: Int, alpha: Int, beta: Int,
               uAlive: Array[Boolean], vAlive: Array[Boolean]): (Array[Boolean], Array[Boolean]) = {
    val f = GraphFields(g); val gu = f.gammaU(t); val gv = f.gammaV(t)
    val uIn = new Array[Boolean](g.nU)
    val vIn = new Array[Boolean](g.nV)
    val uDeg = new Array[Int](g.nU)
    val vDeg = new Array[Int](g.nV)
    val queue = mutable.Queue.empty[Int] // encoded: u -> id, v -> nU + id
    var u = 0
    while (u < g.nU) {
      if (uAlive(u) && gu(u).nonEmpty) {
        var d = 0; val nb = gu(u); var i = 0
        while (i < nb.length) { if (vAlive(nb(i))) d += 1; i += 1 }
        if (d > 0) { uIn(u) = true; uDeg(u) = d; if (d < alpha) queue += u }
      }
      u += 1
    }
    var v = 0
    while (v < g.nV) {
      if (vAlive(v) && gv(v).nonEmpty) {
        var d = 0; val nb = gv(v); var i = 0
        while (i < nb.length) { if (uAlive(nb(i))) d += 1; i += 1 }
        if (d > 0) { vIn(v) = true; vDeg(v) = d; if (d < beta) queue += g.nU + v }
      }
      v += 1
    }
    while (queue.nonEmpty) {
      val w = queue.dequeue()
      if (w < g.nU) {
        val uu = w
        if (uIn(uu)) {
          uIn(uu) = false
          val nb = gu(uu); var i = 0
          while (i < nb.length) {
            val vv = nb(i)
            if (vIn(vv)) { vDeg(vv) -= 1; if (vDeg(vv) < beta) queue += g.nU + vv }
            i += 1
          }
        }
      } else {
        val vv = w - g.nU
        if (vIn(vv)) {
          vIn(vv) = false
          val nb = gv(vv); var i = 0
          while (i < nb.length) {
            val uu = nb(i)
            if (uIn(uu)) { uDeg(uu) -= 1; if (uDeg(uu) < alpha) queue += uu }
            i += 1
          }
        }
      }
    }
    (uIn, vIn)
  }

  /** Plain (α,β)-core of snapshot `t` with no external restriction. */
  def snapshot(g: TemporalBipartiteGraph, t: Int, alpha: Int, beta: Int): (Array[Boolean], Array[Boolean]) =
    snapshot(g, t, alpha, beta, Array.fill(g.nU)(true), Array.fill(g.nV)(true))
}
