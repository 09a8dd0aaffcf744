package repro.core

import repro.graph.{AlphaBetaCore, TemporalBipartiteGraph}
import repro.graph.GraphEdges._

/** Reference (τ_V, τ_U, λ)-core (Definition 3.2), written independently of
  * [[GFCore]]'s cascade: alternate per-snapshot (τ_V, τ_U)-core peeling and
  * λ-survival filtering of V until stable. The fixpoint of Def. 3.2 is
  * unique, so the cascade must agree with it exactly.
  */
object GFCoreFixpoint {

  /** Surviving temporal edges (internal ids of `g`), as [[GFCore.filterEdges]]. */
  def filterEdges(g: TemporalBipartiteGraph, p: Params): Array[(Int, Int, Int)] = {
    val vAlive = Array.fill(g.nV)(true)
    val uAllTrue = Array.fill(g.nU)(true)
    var uIn: Array[Array[Boolean]] = null
    var vIn: Array[Array[Boolean]] = null
    var changed = true
    while (changed) {
      changed = false
      uIn = new Array[Array[Boolean]](g.nT)
      vIn = new Array[Array[Boolean]](g.nT)
      var t = 0
      while (t < g.nT) {
        val (ui, vi) = AlphaBetaCore.snapshot(g, t, p.tauV, p.tauU, uAllTrue, vAlive)
        uIn(t) = ui; vIn(t) = vi
        t += 1
      }
      var v = 0
      while (v < g.nV) {
        if (vAlive(v)) {
          var s = 0
          var tt = 0
          while (tt < g.nT) { if (vIn(tt)(v)) s += 1; tt += 1 }
          if (s < p.lambda) { vAlive(v) = false; changed = true }
        }
        v += 1
      }
    }
    g.internalEdges.filter { case (u, v, t) => uIn(t)(u) && vIn(t)(v) }
  }
}
