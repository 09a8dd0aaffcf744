package repro.core

import repro.graph.TemporalBipartiteGraph

import scala.collection.mutable

/** The (τ_V, τ_U, λ)-core graph filter (Definition 3.2 / Algorithm 2).
  *
  * The cascade is the paper's CorePrune in O(|E|): mutable m-degrees δ(w,t)
  * per snapshot plus the per-vertex survival counter s[w]; any violation
  * (m-degree below τ, or s[v] below λ) removes the vertex at that timestamp
  * (or everywhere) and propagates to its neighbours through an explicit
  * work stack. An edge `(u, v, t)` survives iff both endpoints are still
  * present at `t`.
  */
object GFCore {

  /** Surviving temporal edges (internal ids of `g`) — Algorithm 2. */
  def filterEdges(g: TemporalBipartiteGraph, p: Params): Array[(Int, Int, Int)] = {
    val (dU, dV) = cascade(g, p)
    g.internalEdges.filter { case (u, v, t) => dU(t)(u) > 0 && dV(t)(v) > 0 }
  }

  /** The (τ_V, τ_U, λ)-core as a compacted graph: the surviving edges are
    * gathered as id columns, then U, V and T ids without a surviving edge
    * are dropped and the rest renumbered in their relative order (original
    * labels kept).
    */
  def apply(g: TemporalBipartiteGraph, p: Params): TemporalBipartiteGraph = {
    val (dU, dV) = cascade(g, p)
    val us, vs, ts = new mutable.ArrayBuilder.ofInt
    for (t <- 0 until g.nT; u <- 0 until g.nU if dU(t)(u) > 0; v <- g.gammaU(t)(u) if dV(t)(v) > 0) {
      us += u; vs += v; ts += t
    }
    val (ku, kv, kt) = (us.result(), vs.result(), ts.result())
    TemporalBipartiteGraph.fromInternal(ku, kv, kt, compact(ku, g.uLabels), compact(kv, g.vLabels),
      compact(kt, g.tLabels))
  }

  /** Renumbers the ids in `col` onto `0 until k` (k = distinct ids used),
    * keeping their relative order; returns the labels of the kept ids.
    */
  private def compact(col: Array[Int], labels: Array[Long]): Array[Long] = {
    val used = new Array[Boolean](labels.length)
    col.foreach(used(_) = true)
    val kept = labels.indices.filter(used(_)).toArray
    val newId = new Array[Int](labels.length)
    kept.indices.foreach(k => newId(kept(k)) = k)
    col.indices.foreach(i => col(i) = newId(col(i)))
    kept.map(labels(_))
  }

  /** Algorithm 2's cascade; returns the final m-degree tables
    * `(dU(t)(u), dV(t)(v))`, where 0 means removed at `t`.
    */
  private def cascade(g: TemporalBipartiteGraph, p: Params): (Array[Array[Int]], Array[Array[Int]]) = {
    val nU = g.nU; val nV = g.nV; val nT = g.nT
    // mutable m-degrees; 0 = removed at that snapshot
    val dU = Array.tabulate(nT, nU)((t, u) => g.mDegU(u, t))
    val dV = Array.tabulate(nT, nV)((t, v) => g.mDegV(v, t))
    // s[w]: number of snapshots where w is still present (lines 1-5)
    val sU = Array.tabulate(nU)(u => (0 until nT).count(t => dU(t)(u) > 0))
    val sV = Array.tabulate(nV)(v => (0 until nT).count(t => dV(t)(v) > 0))

    // explicit CorePrune stack; encode (t, side, id) in a Long
    val stack = new java.util.ArrayDeque[Long]()
    @inline def encU(t: Int, u: Int): Long = (t.toLong << 32) | u.toLong
    @inline def encV(t: Int, v: Int): Long = (t.toLong << 32) | (nU.toLong + v)

    def pruneU(t: Int, u: Int): Unit = if (dU(t)(u) > 0) { dU(t)(u) = 0; stack.push(encU(t, u)) }
    def pruneV(t: Int, v: Int): Unit = if (dV(t)(v) > 0) { dV(t)(v) = 0; stack.push(encV(t, v)) }

    def drain(): Unit = while (!stack.isEmpty) {
      val code = stack.pop()
      val t = (code >>> 32).toInt
      val idx = (code & 0xffffffffL).toInt
      if (idx < nU) {
        val u = idx
        // u removed at t: decrement surviving m-neighbours (lines 18-22)
        val nb = g.gammaU(t)(u); var i = 0
        while (i < nb.length) {
          val v = nb(i)
          if (dV(t)(v) > 0) { dV(t)(v) -= 1; if (dV(t)(v) < p.tauU) pruneV(t, v) }
          i += 1
        }
        // survival bookkeeping (lines 23-29); u needs s ≥ 1, trivially held
        if (sU(u) > 0) sU(u) -= 1
      } else {
        val v = idx - nU
        val nb = g.gammaV(t)(v); var i = 0
        while (i < nb.length) {
          val u = nb(i)
          if (dU(t)(u) > 0) { dU(t)(u) -= 1; if (dU(t)(u) < p.tauV) pruneU(t, u) }
          i += 1
        }
        if (sV(v) > 0) {
          sV(v) -= 1
          if (sV(v) < p.lambda) {
            sV(v) = 0
            var tt = 0
            while (tt < nT) { pruneV(tt, v); tt += 1 }
          }
        }
      }
    }

    // initial violations (lines 6-11)
    var t = 0
    while (t < nT) {
      var u = 0
      while (u < nU) { if (dU(t)(u) > 0 && dU(t)(u) < p.tauV) pruneU(t, u); u += 1 }
      var v = 0
      while (v < nV) { if (dV(t)(v) > 0 && (dV(t)(v) < p.tauU || sV(v) < p.lambda)) pruneV(t, v); v += 1 }
      t += 1
    }
    drain()
    (dU, dV)
  }
}
