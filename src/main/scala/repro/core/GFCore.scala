package repro.core

import repro.graph.TemporalBipartiteGraph

/** The (τ_V, τ_U, λ)-core graph filter (Definition 3.2 / Algorithm 2).
  *
  * The cascade is the paper's CorePrune in O(|E|) over one flat `Int` table
  * `deg` indexed by slot (one non-empty (w, t), see [[TemporalBipartiteGraph]]):
  * the U-slots first, then the V-slots. Slot k holds the m-degree δ(w, t),
  * and 0 once w is removed at t; the initial δ are the graph's offset
  * differences. A U-slot needs δ ≥ τ_V, a V-slot δ ≥ τ_U, and each v must
  * stay present at ≥ λ timestamps (its survival counter `s(v)`, initially
  * its slot count). A violating slot is zeroed and pushed onto an `Int`
  * stack of slots, so each slot is pushed at most once; popping it walks its
  * Γ(w, t) slice and decrements the present neighbour slots. A v that falls
  * below λ has its contiguous slot range pruned. An edge `(u, v, t)`
  * survives iff both its slots are non-zero. The final table is the alive
  * mask of the graph's one derived-graph builder,
  * `TemporalBipartiteGraph.keepSlots`, which builds the core straight from
  * the surviving slots and drops the ids without a surviving edge.
  *
  * Memory: the table and the stack, one `Int` per slot each, at most 2·|E|
  * (which the builder keeps below `Int.MaxValue`), plus nV counters.
  * `keepSlots` adds at most two `Int`s per slot, one per surviving edge and
  * O(nU + nV + nT) while it builds.
  */
object GFCore {

  /** Surviving temporal edges (internal ids of `g`) — Algorithm 2 — in
    * `(u, t, v)` order: one walk over the U-slots, O(|E|).
    */
  def filterEdges(g: TemporalBipartiteGraph, p: Params): Array[(Int, Int, Int)] = {
    val deg = cascade(g, p); val nSU = g.uSlotT.length
    val out = Array.newBuilder[(Int, Int, Int)]
    var u = 0
    while (u < g.nU) {
      var k = g.uSlotOff(u)
      while (k < g.uSlotOff(u + 1)) {
        if (deg(k) > 0) {
          var i = g.gUOff(k)
          while (i < g.gUOff(k + 1)) {
            if (deg(nSU + g.gUNbr(i)) > 0) out += ((u, g.vOfSlot(g.gUNbr(i)), g.uSlotT(k)))
            i += 1
          }
        }
        k += 1
      }
      u += 1
    }
    out.result()
  }

  /** The (τ_V, τ_U, λ)-core as a graph: the cascade's surviving slots, built
    * by `TemporalBipartiteGraph.keepSlots`. U, V and T ids without a
    * surviving edge are dropped and the rest renumbered in their relative
    * order (original labels kept).
    */
  def apply(g: TemporalBipartiteGraph, p: Params): TemporalBipartiteGraph =
    g.keepSlots(cascade(g, p), byDegree = false)

  /** [[apply]]'s core with V numbered by ascending (static degree in the core,
    * old id) instead: `Enumerators.reorderByDegree(GFCore(g, p))` in one build.
    */
  def degreeOrdered(g: TemporalBipartiteGraph, p: Params): TemporalBipartiteGraph =
    g.keepSlots(cascade(g, p), byDegree = true)

  /** Algorithm 2's cascade; returns the final `deg` table (U-slots, then V-slots). */
  private def cascade(g: TemporalBipartiteGraph, p: Params): Array[Int] = {
    val nSU = g.uSlotT.length
    // m-degrees (lines 1-5): every slot is non-empty, so every entry starts ≥ 1
    val deg = new Array[Int](nSU + g.vSlotT.length)
    var k = 0
    while (k < nSU) { deg(k) = g.gUOff(k + 1) - g.gUOff(k); k += 1 }
    while (k < deg.length) { deg(k) = g.gVOff(k - nSU + 1) - g.gVOff(k - nSU); k += 1 }
    val stack = new Array[Int](deg.length)
    var top = 0

    // initial violations (lines 6-11); s(v) is v's slot count
    k = 0
    while (k < nSU) { if (deg(k) < p.tauV) { deg(k) = 0; stack(top) = k; top += 1 }; k += 1 }
    val s = new Array[Int](g.nV)
    var v = 0
    while (v < g.nV) {
      s(v) = g.vSlotOff(v + 1) - g.vSlotOff(v)
      k = nSU + g.vSlotOff(v)
      while (k < nSU + g.vSlotOff(v + 1)) {
        if (deg(k) < p.tauU || s(v) < p.lambda) { deg(k) = 0; stack(top) = k; top += 1 }
        k += 1
      }
      v += 1
    }
    while (top > 0) {
      top -= 1
      val x = stack(top)
      // w removed at t: its present m-neighbours lose one degree (lines 18-22).
      // One that would fall below τ is pruned instead, so no slot reaches 0
      // unpushed and every V removal reaches s (τ_U = 1).
      val isU = x < nSU
      val j = if (isU) x else x - nSU // the slot on its own side
      val off = if (isU) g.gUOff else g.gVOff
      val nbr = if (isU) g.gUNbr else g.gVNbr
      val base = if (isU) nSU else 0 // a U-slot lists V-slots, a V-slot U-slots
      val tau = if (isU) p.tauU else p.tauV
      var i = off(j)
      while (i < off(j + 1)) {
        val y = base + nbr(i)
        if (deg(y) > tau) deg(y) -= 1 else if (deg(y) > 0) { deg(y) = 0; stack(top) = y; top += 1 }
        i += 1
      }
      // survival bookkeeping (lines 23-29); u needs s ≥ 1, which holds
      // trivially. A v below λ from the start had every slot pruned above,
      // so v crosses λ − 1 at most once, and then its slot range is pruned.
      if (!isU) {
        val w = g.vOfSlot(j)
        s(w) -= 1
        if (s(w) == p.lambda - 1) {
          var y = nSU + g.vSlotOff(w)
          while (y < nSU + g.vSlotOff(w + 1)) {
            if (deg(y) > 0) { deg(y) = 0; stack(top) = y; top += 1 }
            y += 1
          }
        }
      }
    }
    deg
  }
}
