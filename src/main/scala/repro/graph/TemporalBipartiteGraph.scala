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
  * Every adjacency list the paper's algorithms read is a slice
  * `nbr(off(k) until off(k + 1))` of one flat CSR view, ascending:
  *
  *  - static `u → V` (`uOff`/`uNbr`, key u) with, per static edge `i`, its
  *    timestamps T(u, v) (`tsOff`/`ts`, key i): `N(u)` and CheckFRE
  *    (Algorithm 3);
  *  - static `v → U` (`vOff`/`vNbr`, key v): `N(v)` in FilterV (BK-ALG+ too);
  *  - per-snapshot Γ(u, t) and Γ(v, t), keyed by slot: the m-neighbour scans
  *    of GFCore (Algorithm 2) and VFree (Algorithm 4).
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
  * Degrees are offset differences. Size in `Int`s: 2·(nU + nV) +
  * 3·|E_static| + 3·|E| + 2·S_U + 3·S_V + O(1), plus the labels, where
  * S_U, S_V ≤ |E| are the two slot counts.
  *
  * A graph of labelled edges comes from one builder, `fromInternal`, over
  * packed `Int` id columns: one stable counting sort orders the edges by
  * `(u, v, t)`, adjacent duplicates are dropped, and the same sort then
  * fills each view and its offsets from that ordering. A derived graph is
  * read straight off its parent's views, with no sort over the edges:
  * `keepSlots`, the one renumbering builder, keeps the edges whose two slots
  * are alive in a mask, drops ids without a kept edge and numbers V in
  * relative order or by ascending static degree (VFree's order). GFCore's
  * cores are `keepSlots` over the cascade's surviving slots, and
  * `Enumerators.reorderByDegree` over every slot. `collapseStatic` reuses
  * the static views with one slot per vertex.
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
    val uOff: Array[Int], val uNbr: Array[Int],
    val tsOff: Array[Int], val ts: Array[Int],
    val vOff: Array[Int], val vNbr: Array[Int],
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
  def temporalEdgeCount: Long = ts.length

  /** Number of distinct static edges `(u, v)`. */
  def staticEdgeCount: Long = uNbr.length

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

  /** Structural degree d(v, G) for v ∈ V. */
  def sDegV(v: Int): Int = vOff(v + 1) - vOff(v)

  /** Structural degree d(u, G) for u ∈ U. */
  def sDegU(u: Int): Int = uOff(u + 1) - uOff(u)

  /** Momentary degree δ(v, t) for v ∈ V. */
  def mDegV(v: Int, t: Int): Int = { val k = vSlot(v, t); if (k < 0) 0 else gVOff(k + 1) - gVOff(k) }

  /** Momentary degree δ(u, t) for u ∈ U. */
  def mDegU(u: Int, t: Int): Int = { val k = uSlot(u, t); if (k < 0) 0 else gUOff(k + 1) - gUOff(k) }

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
    val gUOff2 = new Array[Int](nSU2 + 1); val uOfSlot2 = new Array[Int](nSU2)
    var s = 0
    var u2 = 0
    while (u2 < nU2) {
      var k = uSlotOff(uOld(u2))
      while (k < uSlotOff(uOld(u2) + 1)) {
        if (cnt(k) > 0) {
          newUSlot(k) = s; uSlotT2(s) = newT(uSlotT(k)); uOfSlot2(s) = u2
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
    // ascending, and scatters (v, t) into u's bucket of temporal edges (u's
    // kept edges sit at gUOff2(uSlotOff2(u)) on), which comes out in (v, t)
    // order: the static views' order.
    val vSlotOff2 = new Array[Int](nV2 + 1); val vSlotT2 = new Array[Int](nSV2)
    val gVOff2 = new Array[Int](nSV2 + 1); val vOfSlot2 = new Array[Int](nSV2)
    val gVNbr2, gUNbr2, bucketV, ts2 = new Array[Int](nE)
    val gUNext = java.util.Arrays.copyOf(gUOff2, nSU2)
    val bucketNext = Array.tabulate(nU2)(x => gUOff2(uSlotOff2(x)))
    s = 0
    var e, v2 = 0
    while (v2 < nV2) {
      var j = vSlotOff(vOld(v2))
      while (j < vSlotOff(vOld(v2) + 1)) {
        if (cnt(nSU + j) > 0) {
          val t2 = newT(vSlotT(j))
          vSlotT2(s) = t2; vOfSlot2(s) = v2
          var i = gVOff(j)
          while (i < gVOff(j + 1)) {
            val k = gVNbr(i)
            if (alive(k) > 0) {
              val k2 = newUSlot(k); val b = bucketNext(uOfSlot2(k2))
              gVNbr2(e) = k2; e += 1
              gUNbr2(gUNext(k2)) = s; gUNext(k2) += 1
              bucketV(b) = v2; ts2(b) = t2; bucketNext(uOfSlot2(k2)) = b + 1
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

    // Static views: each run of one v in u's bucket is a static edge (u, v)
    // whose timestamps are the run. v → U is filled in u order, so ascending.
    val vOff2 = new Array[Int](nV2 + 1)
    for (r <- 0 until nV2) vOff2(r + 1) = vOff2(r) + vDeg(vOld(r))
    val nSe = vOff2(nV2)
    val uOff2 = new Array[Int](nU2 + 1); val uNbr2, vNbr2 = new Array[Int](nSe); val tsOff2 = new Array[Int](nSe + 1)
    val vNext = java.util.Arrays.copyOf(vOff2, nV2)
    s = 0
    u2 = 0
    while (u2 < nU2) {
      val lo = gUOff2(uSlotOff2(u2))
      var b = lo
      while (b < gUOff2(uSlotOff2(u2 + 1))) {
        if (b == lo || bucketV(b) != bucketV(b - 1)) {
          uNbr2(s) = bucketV(b); tsOff2(s) = b; vNbr2(vNext(bucketV(b))) = u2; vNext(bucketV(b)) += 1
          s += 1
        }
        b += 1
      }
      uOff2(u2 + 1) = s
      u2 += 1
    }
    tsOff2(nSe) = nE
    def labels(old: Array[Int], of: Array[Long]) = Array.tabulate(old.length)(r => of(old(r)))
    new TemporalBipartiteGraph(nU2, nV2, tOld.length, uOff2, uNbr2, tsOff2, ts2, vOff2, vNbr2,
      uSlotOff2, uSlotT2, gUOff2, gUNbr2, vSlotOff2, vSlotT2, gVOff2, gVNbr2, vOfSlot2,
      labels(uOld, uLabels), labels(vOld, vLabels), labels(tOld, tLabels))
  }

  /** Static bipartite projection: every timestamp collapsed onto t = 0, so
    * each vertex with an edge has one slot, whose Γ(w, 0) is N(w). All ids
    * are kept, and the static views are shared with this graph.
    */
  def collapseStatic: TemporalBipartiteGraph = {
    // per vertex the number of vertices with an edge before it (its slot, if it has one),
    // and per slot its vertex
    def slots(off: Array[Int]): (Array[Int], Array[Int]) = {
      val slotOff = new Array[Int](off.length)
      for (w <- 0 until off.length - 1) slotOff(w + 1) = slotOff(w) + (if (off(w + 1) > off(w)) 1 else 0)
      (slotOff, (0 until off.length - 1).filter(w => off(w + 1) > off(w)).toArray)
    }
    val (uSlotOff1, uOf) = slots(uOff); val (vSlotOff1, vOf) = slots(vOff)
    new TemporalBipartiteGraph(nU, nV, 1, uOff, uNbr, Array.range(0, uNbr.length + 1), new Array[Int](uNbr.length),
      vOff, vNbr,
      uSlotOff1, new Array[Int](uOf.length), uOf.map(uOff) :+ uNbr.length, uNbr.map(vSlotOff1),
      vSlotOff1, new Array[Int](vOf.length), vOf.map(vOff) :+ vNbr.length, vNbr.map(uSlotOff1),
      vOf, uLabels, vLabels, Array(0L))
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
    val cols = Seq("u", "v", "t").zipWithIndex.map { case (name, c) =>
      Array.tabulate(rows.length) { i =>
        require(!rows(i).isNullAt(c), s"fromDF: null $name in edge row $i")
        rows(i).getLong(c)
      }
    }
    fromLabels(cols(0), cols(1), cols(2))
  }

  /** Labelled edge columns to a graph: each side's ids follow ascending label order. */
  private def fromLabels(us: Array[Long], vs: Array[Long], ts: Array[Long]): TemporalBipartiteGraph = {
    val uLabels = distinctSorted(us); val vLabels = distinctSorted(vs); val tLabels = distinctSorted(ts)
    def ids(col: Array[Long], labels: Array[Long]) = col.map(java.util.Arrays.binarySearch(labels, _))
    fromInternal(ids(us, uLabels), ids(vs, vLabels), ids(ts, tLabels), uLabels, vLabels, tLabels)
  }

  private def distinctSorted(col: Array[Long]): Array[Long] = {
    val s = col.sorted
    s.indices.collect { case i if i == 0 || s(i - 1) != s(i) => s(i) }.toArray
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
    // each run of equal triples (the temporal edges kU/kV/kT, with their
    // static edge sOf) and the first of each run of equal (u, v) (the static
    // edges sU/sV).
    val ord = countingSort(countingSort(countingSort(Array.range(0, us.length), nT, ts)._1, nV, vs)._1, nU, us)._1
    val kU, kV, kT, sOf, sU, sV = new Array[Int](ord.length)
    var nTe, nSe, i = 0; var p = -1
    while (i < ord.length) {
      val e = ord(i)
      val newStatic = p < 0 || us(p) != us(e) || vs(p) != vs(e)
      if (newStatic) { sU(nSe) = us(e); sV(nSe) = vs(e); nSe += 1 }
      if (newStatic || ts(p) != ts(e)) { kU(nTe) = us(e); kV(nTe) = vs(e); kT(nTe) = ts(e); sOf(nTe) = nSe - 1; nTe += 1 }
      p = e; i += 1
    }
    require(nTe <= MaxEdges, s"graph too large: $nTe distinct temporal edges, more than MaxEdges = $MaxEdges")

    // Each view sorts the first m kept edges, already in (u, v, t) order, by
    // its key; the sort is stable, so every list comes out ascending.
    def view(m: Int, n: Int, key: Array[Int], value: Array[Int]): (Array[Int], Array[Int]) = {
      val (nbr, off) = countingSort(Array.range(0, m), n, key) // kept-edge indices, then their values
      var i = 0
      while (i < m) { nbr(i) = value(nbr(i)); i += 1 }
      (off, nbr)
    }
    val (uOff, uNbr) = view(nSe, nU, sU, sV)
    val (tsOff, tsOf) = view(nTe, nSe, sOf, kT)
    val (vOff, vNbr) = view(nSe, nV, sV, sU)

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
    new TemporalBipartiteGraph(nU, nV, nT, uOff, uNbr, tsOff, tsOf, vOff, vNbr,
      uSlotOff, uSlotT, gUOff, gUNbr, vSlotOff, vSlotT, gVOff, gVNbr, vOfSlot, uLabels, vLabels, tLabels)
  }
}
