package repro.graph

import org.apache.spark.sql.DataFrame

/** Compact in-memory temporal bipartite graph `G = (U, V, E)`.
  *
  * Vertices have dense internal ids `0 until nU` / `0 until nV` and
  * timestamps `0 until nT`; the label arrays map them back to the input's
  * ids so enumeration results are reported in input-id space. A graph built
  * from labels ([[TemporalBipartiteGraph.fromEdges]], `fromDF`) numbers
  * each side in ascending label order.
  *
  * Every adjacency list the paper's algorithms read from the graph is a
  * slice `nbr(off(k) until off(k + 1))` of one flat CSR view, ascending:
  * the per-snapshot Γ(u, t) and Γ(v, t), keyed by slot, the doubly
  * compressed rows of Buluç & Gilbert (IPDPS 2008). GFCore (Algorithm 2)
  * and VFree (Algorithm 4) read them. The static projection (N(u), N(v) and
  * T(u, v)) is not stored here: FilterV and CheckFRE read it from a
  * [[StaticIndex]], built from the slots once per run.
  *
  * A slot is one non-empty (w, t) pair. Each side numbers its slots in
  * (w, t) order, so one vertex's slots are contiguous, `uSlotOff(u) until
  * uSlotOff(u + 1)` (`vSlotOff` for v) in ascending t (`uSlotT`/`vSlotT`),
  * and within one t slot order is vertex order. Γ(u, t) of U-slot k is
  * `gUNbr(gUOff(k) until gUOff(k + 1))` and lists V-slot ids; Γ(v, t) of
  * V-slot k (`gVOff`/`gVNbr`) lists U-slot ids. Both are ascending, so two
  * lists of one t intersect by id. `vOfSlot` maps a V-slot to its v; a
  * U-slot's u is found by [[uOfSlot]], a binary search.
  *
  * Size in `Int`s: nU + nV + 2·|E| + 2·S_U + 3·S_V + 4, plus the labels,
  * where S_U, S_V ≤ |E| are the two slot counts (the 4 is the closing
  * entries of the four offset arrays).
  *
  * A graph of labelled edges comes from one builder, `fromInternal`, over
  * packed `Int` id columns: one stable counting sort orders the edges by
  * `(u, v, t)`, adjacent duplicates are dropped, and the kept edges sorted
  * by t, then stably by one side's vertex, give that side's slots. A
  * derived graph is read straight off its parent's slot views, with no sort
  * over the edges: `keepSlots`, the one renumbering builder, keeps the edges
  * whose two slots are alive in a mask, drops ids without a kept edge and
  * numbers V in relative order or by ascending static degree (VFree's
  * order). GFCore's cores are `keepSlots` over the cascade's surviving
  * slots, and `Enumerators.reorderByDegree` over every slot.
  * `collapseStatic` lists the static edges off the U-slots and builds them
  * at one timestamp with `fromInternal`.
  *
  * Size bound: |E| ≤ [[TemporalBipartiteGraph.MaxEdges]] distinct temporal
  * edges, checked by the builder, so the S_U + S_V ≤ 2·|E| slots of both
  * sides (GFCore's table and stack) have `Int` sizes and indices.
  *
  * The class is immutable and `Serializable` so it can be broadcast to
  * executors for the distributed enumeration.
  */
final class TemporalBipartiteGraph private (
    val nU: Int,
    val nV: Int,
    val nT: Int,
    val uSlotOff: Array[Int], val uSlotT: Array[Int], val gUOff: Array[Int], val gUNbr: Array[Int],
    val vSlotOff: Array[Int], val vSlotT: Array[Int], val gVOff: Array[Int], val gVNbr: Array[Int],
    val vOfSlot: Array[Int],
    /** internal u id -> original label. */
    val uLabels: Array[Long],
    /** internal v id -> original label. */
    val vLabels: Array[Long],
    /** internal t id -> original timestamp. */
    val tLabels: Array[Long],
) extends Serializable {

  /** Number of distinct temporal edges `(u, v, t)`. */
  def temporalEdgeCount: Long = gVNbr.length

  /** U-slot of (u, t), or −1 if Γ(u, t) is empty: a binary search. */
  def uSlot(u: Int, t: Int): Int = java.util.Arrays.binarySearch(uSlotT, uSlotOff(u), uSlotOff(u + 1), t) max -1

  /** V-slot of (v, t), or −1 if Γ(v, t) is empty: a binary search. */
  def vSlot(v: Int, t: Int): Int = java.util.Arrays.binarySearch(vSlotT, vSlotOff(v), vSlotOff(v + 1), t) max -1

  /** The u of U-slot `k`: the last u with `uSlotOff(u) ≤ k`, a binary search. */
  def uOfSlot(k: Int): Int = {
    var lo = 0; var hi = nU - 1
    while (lo < hi) { val m = (lo + hi + 1) >>> 1; if (uSlotOff(m) <= k) lo = m else hi = m - 1 }
    lo
  }

  /** The one derived-graph builder: the subgraph of the edges whose U-slot
    * and V-slot are both alive, read straight off the slot views. `alive` is
    * indexed like GFCore's table, U-slot k at k and V-slot k at S_U + k, and
    * a slot is alive iff its entry is positive. Ids and slots without a kept
    * edge are dropped; U and T keep their relative order, and V is numbered
    * by ascending (static degree among the kept edges, old id) if
    * `byDegree`, in relative order otherwise. Labels are carried over.
    * O(|E| + nU + nV + nT), every array at its exact size, and no sort over
    * the edges: each list comes out ascending from the order it is filled in.
    */
  private[repro] def keepSlots(alive: Array[Int], byDegree: Boolean): TemporalBipartiteGraph = {
    val nSU = uSlotT.length
    require(alive.length == nSU + vSlotT.length, s"alive has ${alive.length} entries for ${nSU + vSlotT.length} slots")
    // One walk over the U-slots: each slot's kept entries (cnt, indexed like
    // alive), the kept u and t, and V's static degree among the kept edges
    // (lastU(v) is the last u counted for v; the walk is grouped by u).
    val cnt = new Array[Int](alive.length)
    val keptU = new Array[Int](nU); val keptT = new Array[Int](nT)
    val vDeg = new Array[Int](nV); val lastU = Array.fill(nV)(-1)
    var nE, nSU2, nSV2 = 0
    var u = 0
    while (u < nU) {
      var k = uSlotOff(u)
      while (k < uSlotOff(u + 1)) {
        if (alive(k) > 0) {
          var i = gUOff(k)
          while (i < gUOff(k + 1)) {
            val j = nSU + gUNbr(i)
            if (alive(j) > 0) {
              if (cnt(j) == 0) nSV2 += 1
              cnt(k) += 1; cnt(j) += 1; nE += 1
              val v = vOfSlot(gUNbr(i))
              if (lastU(v) != u) { lastU(v) = u; vDeg(v) += 1 }
            }
            i += 1
          }
          if (cnt(k) > 0) { keptU(u) = 1; keptT(uSlotT(k)) = 1; nSU2 += 1 }
        }
        k += 1
      }
      u += 1
    }

    // New ids: ascending (key, old id) over the ids with key ≥ 1. Returns the
    // kept old ids in new order.
    def renumber(key: Array[Int], nKeys: Int): Array[Int] = {
      val (order, off) = TemporalBipartiteGraph.countingSort(Array.range(0, key.length), nKeys, key)
      java.util.Arrays.copyOfRange(order, off(1), order.length)
    }
    val uOld = renumber(keptU, 2); val tOld = renumber(keptT, 2)
    val vOld = renumber(if (byDegree) vDeg else vDeg.map(_ min 1), nU + 1)
    val nU2 = uOld.length; val nV2 = vOld.length
    val newT = new Array[Int](nT)
    for (r <- tOld.indices) newT(tOld(r)) = r

    // U-slots: the kept ones in their old order, which is (new u, new t) order.
    val newUSlot = new Array[Int](nSU)
    val uSlotOff2 = new Array[Int](nU2 + 1); val uSlotT2 = new Array[Int](nSU2)
    val gUOff2 = new Array[Int](nSU2 + 1)
    var s = 0
    var u2 = 0
    while (u2 < nU2) {
      var k = uSlotOff(uOld(u2))
      while (k < uSlotOff(uOld(u2) + 1)) {
        if (cnt(k) > 0) {
          newUSlot(k) = s; uSlotT2(s) = newT(uSlotT(k))
          gUOff2(s + 1) = gUOff2(s) + cnt(k)
          s += 1
        }
        k += 1
      }
      uSlotOff2(u2 + 1) = s
      u2 += 1
    }

    // V-slots in (new v, t) order, each Γ(v, t) filtered and renumbered. The
    // same walk transposes every entry into Γ(u, t), which comes out
    // ascending.
    val vSlotOff2 = new Array[Int](nV2 + 1); val vSlotT2 = new Array[Int](nSV2)
    val gVOff2 = new Array[Int](nSV2 + 1); val vOfSlot2 = new Array[Int](nSV2)
    val gVNbr2, gUNbr2 = new Array[Int](nE)
    val gUNext = java.util.Arrays.copyOf(gUOff2, nSU2)
    s = 0
    var e, v2 = 0
    while (v2 < nV2) {
      var j = vSlotOff(vOld(v2))
      while (j < vSlotOff(vOld(v2) + 1)) {
        if (cnt(nSU + j) > 0) {
          vSlotT2(s) = newT(vSlotT(j)); vOfSlot2(s) = v2
          var i = gVOff(j)
          while (i < gVOff(j + 1)) {
            val k = gVNbr(i)
            if (alive(k) > 0) {
              val k2 = newUSlot(k)
              gVNbr2(e) = k2; e += 1
              gUNbr2(gUNext(k2)) = s; gUNext(k2) += 1
            }
            i += 1
          }
          gVOff2(s + 1) = e
          s += 1
        }
        j += 1
      }
      vSlotOff2(v2 + 1) = s
      v2 += 1
    }

    def labels(old: Array[Int], of: Array[Long]) = Array.tabulate(old.length)(r => of(old(r)))
    new TemporalBipartiteGraph(nU2, nV2, tOld.length,
      uSlotOff2, uSlotT2, gUOff2, gUNbr2, vSlotOff2, vSlotT2, gVOff2, gVNbr2, vOfSlot2,
      labels(uOld, uLabels), labels(vOld, vLabels), labels(tOld, tLabels))
  }

  /** Static bipartite projection: every timestamp collapsed onto t = 0, so
    * each vertex with an edge has one slot, whose Γ(w, 0) is N(w). All ids
    * and labels are kept: the edges (u, v, 0), listed off the U-slots with
    * duplicates, go to `fromInternal`, which drops the duplicates.
    */
  def collapseStatic: TemporalBipartiteGraph = {
    val us = new Array[Int](gUNbr.length)
    for (u <- 0 until nU) java.util.Arrays.fill(us, gUOff(uSlotOff(u)), gUOff(uSlotOff(u + 1)), u)
    TemporalBipartiteGraph.fromInternal(us, gUNbr.map(vOfSlot), new Array[Int](us.length), uLabels, vLabels, Array(0L))
  }
}

object TemporalBipartiteGraph {

  /** Builds a graph from labelled temporal edges; duplicates are dropped. */
  def fromEdges(edges: Iterable[(Long, Long, Long)]): TemporalBipartiteGraph = {
    val es = edges.toArray
    fromLabels(es.map(_._1), es.map(_._2), es.map(_._3))
  }

  /** Builds a graph from a Spark DataFrame with columns (u: long, v: long,
    * t: long-castable). Any `Long` is a valid label; a null id is rejected
    * with an `IllegalArgumentException` naming its column.
    */
  def fromDF(df: DataFrame): TemporalBipartiteGraph = {
    val rows = df.selectExpr("cast(u as long) as u", "cast(v as long) as v", "cast(t as long) as t").collect()
    val names = Array("u", "v", "t")
    val cols = Array.fill(3)(new Array[Long](rows.length))
    var i = 0
    while (i < rows.length) {
      var c = 0
      while (c < 3) {
        require(!rows(i).isNullAt(c), s"fromDF: null ${names(c)} in edge row $i")
        cols(c)(i) = rows(i).getLong(c)
        c += 1
      }
      i += 1
    }
    fromLabels(cols(0), cols(1), cols(2))
  }

  /** Labelled edge columns to a graph: each side's ids follow ascending label order. */
  private def fromLabels(us: Array[Long], vs: Array[Long], ts: Array[Long]): TemporalBipartiteGraph = {
    val uLabels = distinctSorted(us); val vLabels = distinctSorted(vs); val tLabels = distinctSorted(ts)
    def ids(col: Array[Long], labels: Array[Long]) = {
      val out = new Array[Int](col.length)
      var i = 0
      while (i < col.length) { out(i) = java.util.Arrays.binarySearch(labels, col(i)); i += 1 }
      out
    }
    fromInternal(ids(us, uLabels), ids(vs, vLabels), ids(ts, tLabels), uLabels, vLabels, tLabels)
  }

  /** The distinct values of `col`, ascending: a sorted copy deduplicated in place. */
  private def distinctSorted(col: Array[Long]): Array[Long] = {
    val s = col.clone()
    java.util.Arrays.sort(s)
    var n = 0
    var i = 0
    while (i < s.length) {
      if (n == 0 || s(n - 1) != s(i)) { s(n) = s(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(s, n)
  }

  /** Stable counting sort of `idx` by `key(idx(i))` ∈ `[0, n)`: the sorted
    * indices and the n + 1 bucket offsets (bucket k is `[off(k), off(k + 1))`).
    */
  private[repro] def countingSort(idx: Array[Int], n: Int, key: Array[Int]): (Array[Int], Array[Int]) = {
    val off = new Array[Int](n + 1); val out = new Array[Int](idx.length)
    var i = 0
    while (i < idx.length) { off(key(idx(i)) + 1) += 1; i += 1 }
    var k = 0
    while (k < n) { off(k + 1) += off(k); k += 1 }
    val next = java.util.Arrays.copyOf(off, n)
    i = 0
    while (i < idx.length) { val b = key(idx(i)); out(next(b)) = idx(i); next(b) += 1; i += 1 }
    (out, off)
  }

  /** Most distinct temporal edges a graph may hold, so that the at most
    * 2·|E| slots of both sides have `Int` ids.
    */
  val MaxEdges: Int = Int.MaxValue / 2

  /** The one builder. Edge `e` is `(us(e), vs(e), ts(e))` in internal ids;
    * the label arrays fix `nU`/`nV`/`nT`, so isolated vertices and empty
    * timestamps are allowed. Duplicate edges are dropped; the columns are
    * only read. O(|E| + nU + nV + nT). Rejects more than [[MaxEdges]]
    * distinct temporal edges.
    */
  private[repro] def fromInternal(us: Array[Int], vs: Array[Int], ts: Array[Int],
                                  uLabels: Array[Long], vLabels: Array[Long],
                                  tLabels: Array[Long]): TemporalBipartiteGraph = {
    val nU = uLabels.length; val nV = vLabels.length; val nT = tLabels.length
    require(vs.length == us.length && ts.length == us.length, "id columns differ in length")
    for (e <- us.indices)
      require(us(e) >= 0 && us(e) < nU && vs(e) >= 0 && vs(e) < nV && ts(e) >= 0 && ts(e) < nT,
        s"edge out of range: (${us(e)},${vs(e)},${ts(e)})")

    // (u, v, t) order, least significant key first. Keep the first edge of
    // each run of equal triples: the temporal edges kU/kV/kT.
    val ord = countingSort(countingSort(countingSort(Array.range(0, us.length), nT, ts)._1, nV, vs)._1, nU, us)._1
    val kU, kV, kT = new Array[Int](ord.length)
    var nTe, i = 0; var p = -1
    while (i < ord.length) {
      val e = ord(i)
      if (p < 0 || us(p) != us(e) || vs(p) != vs(e) || ts(p) != ts(e)) {
        kU(nTe) = us(e); kV(nTe) = vs(e); kT(nTe) = ts(e); nTe += 1
      }
      p = e; i += 1
    }
    require(nTe <= MaxEdges, s"graph too large: $nTe distinct temporal edges, more than MaxEdges = $MaxEdges")

    // Slots: the kept edges in (t, u, v) order, then stably by one side's
    // vertex w, give (w, t, other) order, where each run of one (w, t) is a
    // slot and lists its other ends ascending. Returns that order, each kept
    // edge's slot, the slot range of each w, and per slot its t and its
    // offset in the order.
    val keptByT = countingSort(Array.range(0, nTe), nT, kT)._1
    def slots(n: Int, side: Array[Int]) = {
      val order = countingSort(keptByT, n, side)._1
      val slotOf = new Array[Int](nTe); val slotOff = new Array[Int](n + 1)
      val gOff = new Array[Int](nTe + 1); val slotT = new Array[Int](nTe)
      var nS = 0
      var r = 0
      while (r < nTe) {
        val i = order(r)
        if (r == 0 || slotT(nS - 1) != kT(i) || side(order(r - 1)) != side(i)) {
          gOff(nS) = r; slotT(nS) = kT(i); slotOff(side(i) + 1) += 1; nS += 1
        }
        slotOf(i) = nS - 1
        r += 1
      }
      gOff(nS) = nTe
      var w = 0
      while (w < n) { slotOff(w + 1) += slotOff(w); w += 1 }
      (order, slotOf, slotOff, java.util.Arrays.copyOf(slotT, nS), java.util.Arrays.copyOf(gOff, nS + 1))
    }
    val (ordU, uSlotOf, uSlotOff, uSlotT, gUOff) = slots(nU, kU)
    val (ordV, vSlotOf, vSlotOff, vSlotT, gVOff) = slots(nV, kV)
    val gUNbr, gVNbr = new Array[Int](nTe)
    for (r <- 0 until nTe) { gUNbr(r) = vSlotOf(ordU(r)); gVNbr(r) = uSlotOf(ordV(r)) }
    val vOfSlot = Array.tabulate(vSlotT.length)(k => kV(ordV(gVOff(k))))
    new TemporalBipartiteGraph(nU, nV, nT,
      uSlotOff, uSlotT, gUOff, gUNbr, vSlotOff, vSlotT, gVOff, gVNbr, vOfSlot, uLabels, vLabels, tLabels)
  }
}
