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
  * Every graph comes from one builder, `fromInternal`, over packed `Int` id
  * columns: one stable counting sort orders the edges by `(u, v, t)`,
  * adjacent duplicates are dropped, and the same sort then fills each view
  * and its offsets from that ordering. A derived graph maps the id columns
  * and builds once: `collapseStatic` zeroes `t`, and `compact`, the one
  * renumbering pass, drops ids without an edge and numbers V in relative
  * order or by ascending static degree (VFree's order). GFCore's cores and
  * `Enumerators.reorderByDegree` are `compact` over their edges.
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

  /** All temporal edges as fresh id columns `(us, vs, ts)`, in `(u, v, t)` order. */
  private[repro] def columns: (Array[Int], Array[Int], Array[Int]) = {
    val us, vs = new Array[Int](ts.length)
    for (u <- 0 until nU; i <- uOff(u) until uOff(u + 1); e <- tsOff(i) until tsOff(i + 1)) {
      us(e) = u; vs(e) = uNbr(i)
    }
    (us, vs, ts.clone())
  }

  /** All temporal edges as internal-id triples (u, v, t), in that order. */
  def internalEdges: Array[(Int, Int, Int)] = {
    val (us, vs, ts) = columns
    Array.tabulate(us.length)(e => (us(e), vs(e), ts(e)))
  }

  /** All temporal edges in original-label space. */
  def labeledEdges: Array[(Long, Long, Long)] =
    internalEdges.map { case (u, v, t) => (uLabels(u), vLabels(v), tLabels(t)) }

  /** The one derived-graph builder: the graph of the edges `(us(e), vs(e),
    * ts(e))`, given in this graph's ids and grouped by u. Ids without an
    * edge are dropped; U and T keep their relative order, and V is numbered
    * by ascending (static degree among the edges, old id) if `byDegree`, in
    * relative order otherwise. Labels are carried over. Rewrites the columns
    * in place, so they must not be another graph's arrays.
    */
  private[repro] def compact(us: Array[Int], vs: Array[Int], ts: Array[Int], byDegree: Boolean): TemporalBipartiteGraph = {
    // Renumbers `col` onto 0 until k by ascending (key, old id), with key ≥ 1 on the used ids and 0
    // on the rest, which fill bucket 0 and are dropped; returns the kept labels.
    def renumber(col: Array[Int], labels: Array[Long], nKeys: Int, key: Array[Int]): Array[Long] = {
      val (order, off) = TemporalBipartiteGraph.countingSort(Array.range(0, labels.length), nKeys, key)
      val newId = new Array[Int](labels.length)
      for (r <- off(1) until order.length) newId(order(r)) = r - off(1)
      col.indices.foreach(i => col(i) = newId(col(i)))
      Array.tabulate(order.length - off(1))(r => labels(order(off(1) + r)))
    }
    def used(col: Array[Int], n: Int) = { val key = new Array[Int](n); col.foreach(key(_) = 1); key }
    val vDeg = new Array[Int](nV) // static degree: the edges come grouped by u
    val lastU = Array.fill(nV)(-1)
    for (e <- us.indices if lastU(vs(e)) != us(e)) { lastU(vs(e)) = us(e); vDeg(vs(e)) += 1 }
    TemporalBipartiteGraph.fromInternal(us, vs, ts, renumber(us, uLabels, 2, used(us, nU)),
      renumber(vs, vLabels, nU + 1, if (byDegree) vDeg else used(vs, nV)), renumber(ts, tLabels, 2, used(ts, nT)))
  }

  /** Static bipartite projection (every timestamp collapsed onto t = 0). */
  def collapseStatic: TemporalBipartiteGraph = {
    val (us, vs, _) = columns
    TemporalBipartiteGraph.fromInternal(us, vs, new Array[Int](us.length), uLabels, vLabels, Array(0L))
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
