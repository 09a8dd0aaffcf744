package repro.core

import repro.graph.TemporalBipartiteGraph

import scala.collection.mutable

/** The (τ_V, τ_U, λ)-core graph filter (Definition 3.2 / Algorithm 2).
  *
  * The cascade is the paper's CorePrune in O(|E|) over one flat `Int` table
  * `deg`: slot `t·(nU+nV) + w` holds the m-degree δ(w, t) of vertex `w`
  * (`w = u` for u ∈ U, `w = nU + v` for v ∈ V) and 0 once `w` is removed at
  * `t`; the initial δ are the graph's offset differences. A U slot needs
  * δ ≥ τ_V, a V slot δ ≥ τ_U, and each v must stay present at ≥ λ
  * timestamps (its survival counter `s(v)`). A violating slot is zeroed and
  * pushed onto an `Int` stack of slots, so each slot is pushed at most once;
  * popping it walks its Γ(w, t) slice and decrements the present
  * neighbours. An edge `(u, v, t)` survives iff both its slots are non-zero.
  *
  * Memory: the table's nT·(nU+nV) `Int`s (which the builder keeps below
  * `Int.MaxValue`) plus a stack of at most 2·|E| slots.
  */
object GFCore {

  /** Surviving temporal edges (internal ids of `g`) — Algorithm 2 — in
    * `(u, v, t)` order.
    */
  def filterEdges(g: TemporalBipartiteGraph, p: Params): Array[(Int, Int, Int)] = {
    val (us, vs, ts) = survivors(g, p)
    Array.tabulate(us.length)(e => (us(e), vs(e), ts(e)))
  }

  /** The (τ_V, τ_U, λ)-core as a compacted graph: U, V and T ids without a
    * surviving edge are dropped and the rest renumbered in their relative
    * order (original labels kept).
    */
  def apply(g: TemporalBipartiteGraph, p: Params): TemporalBipartiteGraph = core(g, p, byDegree = false)

  /** [[apply]]'s core with V numbered by ascending (static degree in the core,
    * old id) instead: `Enumerators.reorderByDegree(GFCore(g, p))` in one build.
    */
  def degreeOrdered(g: TemporalBipartiteGraph, p: Params): TemporalBipartiteGraph = core(g, p, byDegree = true)

  private def core(g: TemporalBipartiteGraph, p: Params, byDegree: Boolean): TemporalBipartiteGraph = {
    val (us, vs, ts) = survivors(g, p)
    val vDeg = new Array[Int](g.nV) // static degree in the core: one per run of equal (u, v)
    for (e <- us.indices if e == 0 || us(e - 1) != us(e) || vs(e - 1) != vs(e)) vDeg(vs(e)) += 1
    TemporalBipartiteGraph.fromInternal(us, vs, ts, renumber(us, g.uLabels)(_ => 1),
      renumber(vs, g.vLabels, g.nU + 1)(v => if (byDegree) vDeg(v) else 1), renumber(ts, g.tLabels)(_ => 1))
  }

  /** Renumbers the ids in `col` onto `0 until k` (k = distinct ids used) by
    * ascending (key, old id), `key` ∈ [1, nKeys) on the used ids, so a
    * constant key keeps their relative order; returns the kept labels.
    */
  private def renumber(col: Array[Int], labels: Array[Long], nKeys: Int = 2)(key: Int => Int): Array[Long] = {
    val used = new Array[Boolean](labels.length); col.foreach(used(_) = true)
    val (order, off) = TemporalBipartiteGraph.countingSort(Array.range(0, labels.length), nKeys)(x =>
      if (used(x)) key(x) else 0) // the unused ids fill bucket 0
    val newId = new Array[Int](labels.length)
    for (r <- off(1) until order.length) newId(order(r)) = r - off(1)
    col.indices.foreach(i => col(i) = newId(col(i)))
    Array.tabulate(order.length - off(1))(r => labels(order(off(1) + r)))
  }

  /** The surviving edges as id columns `(us, vs, ts)`, in `(u, v, t)` order: O(|E|). */
  private def survivors(g: TemporalBipartiteGraph, p: Params): (Array[Int], Array[Int], Array[Int]) = {
    val deg = cascade(g, p); val n = g.nU + g.nV
    val us, vs, ts = new mutable.ArrayBuilder.ofInt
    for (u <- 0 until g.nU; i <- g.uOff(u) until g.uOff(u + 1); e <- g.tsOff(i) until g.tsOff(i + 1)
         if deg(g.ts(e) * n + u) > 0 && deg(g.ts(e) * n + g.nU + g.uNbr(i)) > 0) {
      us += u; vs += g.uNbr(i); ts += g.ts(e)
    }
    (us.result(), vs.result(), ts.result())
  }

  /** Algorithm 2's cascade; returns the final `deg` table. */
  private def cascade(g: TemporalBipartiteGraph, p: Params): Array[Int] = {
    val nU = g.nU; val nT = g.nT; val n = nU + g.nV
    // m-degrees and, per v, the number of snapshots where v is present (lines 1-5)
    val deg = new Array[Int](nT * n)
    val s = new Array[Int](g.nV)
    var present = 0
    for (t <- 0 until nT; w <- 0 until n) {
      val d = if (w < nU) g.mDegU(w, t) else g.mDegV(w - nU, t)
      deg(t * n + w) = d
      if (d > 0) { present += 1; if (w >= nU) s(w - nU) += 1 }
    }
    def tau(w: Int): Int = if (w < nU) p.tauV else p.tauU

    val stack = new Array[Int](present)
    var top = 0
    def prune(slot: Int): Unit = if (deg(slot) > 0) { deg(slot) = 0; stack(top) = slot; top += 1 }

    // initial violations (lines 6-11)
    for (slot <- deg.indices) {
      val w = slot % n
      if (deg(slot) < tau(w) || w >= nU && s(w - nU) < p.lambda) prune(slot)
    }
    while (top > 0) {
      top -= 1
      val t = stack(top) / n; val w = stack(top) % n; val row = t * n
      // w removed at t: its present m-neighbours lose one degree (lines 18-22).
      // One that would fall below τ is pruned instead, so no slot reaches 0
      // unpushed and every V removal reaches s (τ_U = 1).
      val (off, nbr) = if (w < nU) (g.gUOff, g.gUNbr) else (g.gVOff, g.gVNbr)
      val k = if (w < nU) g.keyU(w, t) else g.keyV(w - nU, t)
      val base = if (w < nU) row + nU else row
      var i = off(k)
      while (i < off(k + 1)) {
        val x = base + nbr(i)
        if (deg(x) > tau(x - row)) deg(x) -= 1 else prune(x)
        i += 1
      }
      // survival bookkeeping (lines 23-29); u needs s ≥ 1, which holds
      // trivially. A v below λ from the start had every slot pruned above,
      // so v crosses λ − 1 at most once.
      if (w >= nU) {
        s(w - nU) -= 1
        if (s(w - nU) == p.lambda - 1) { var tt = 0; while (tt < nT) { prune(tt * n + w); tt += 1 } }
      }
    }
    deg
  }
}
