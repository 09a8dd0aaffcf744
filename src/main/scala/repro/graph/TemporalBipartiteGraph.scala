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
  *  - per-snapshot Γ(u, t) (`gUOff`/`gUNbr`, key [[keyU]] = t·nU + u) and
  *    Γ(v, t) (`gVOff`/`gVNbr`, key [[keyV]] = t·nV + v): the m-neighbour
  *    scans of GFCore (Algorithm 2) and VFree (Algorithm 4).
  *
  * Degrees are offset differences. Size in `Int`s: nT·(nU+nV) + nU + nV +
  * 3·|E_static| + 3·|E| + O(1), plus the labels.
  *
  * Every graph comes from one builder, `fromInternal`, over packed `Int` id
  * columns: one stable counting sort orders the edges by `(u, v, t)`,
  * adjacent duplicates are dropped, and the same sort then fills each view
  * and its offsets from that ordering. A derived graph maps the id columns
  * and builds once: `relabelV` permutes V, `collapseStatic` zeroes `t`, and
  * GFCore drops ids without a surviving edge, keeping the others' relative
  * order or, for VFree, numbering V by degree in the same pass.
  *
  * Size bound: nT·(nU + nV) < `Int.MaxValue`, checked by the builder, so
  * the per-snapshot offsets and a per-snapshot vertex table indexed
  * `t·(nU + nV) + w` (GFCore's) have `Int` sizes and indices.
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
    val gUOff: Array[Int], val gUNbr: Array[Int],
    val gVOff: Array[Int], val gVNbr: Array[Int],
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

  /** Key of Γ(u, t) in `gUOff`. */
  def keyU(u: Int, t: Int): Int = t * nU + u

  /** Key of Γ(v, t) in `gVOff`. */
  def keyV(v: Int, t: Int): Int = t * nV + v

  /** Structural degree d(v, G) for v ∈ V. */
  def sDegV(v: Int): Int = vOff(v + 1) - vOff(v)

  /** Structural degree d(u, G) for u ∈ U. */
  def sDegU(u: Int): Int = uOff(u + 1) - uOff(u)

  /** Momentary degree δ(v, t) for v ∈ V. */
  def mDegV(v: Int, t: Int): Int = gVOff(keyV(v, t) + 1) - gVOff(keyV(v, t))

  /** Momentary degree δ(u, t) for u ∈ U. */
  def mDegU(u: Int, t: Int): Int = gUOff(keyU(u, t) + 1) - gUOff(keyU(u, t))

  /** All temporal edges as packed id columns `(us, vs, ts)`, in `(u, v, t)` order. */
  private def columns: (Array[Int], Array[Int], Array[Int]) = {
    val us, vs = new Array[Int](ts.length)
    for (u <- 0 until nU; i <- uOff(u) until uOff(u + 1); e <- tsOff(i) until tsOff(i + 1)) {
      us(e) = u; vs(e) = uNbr(i)
    }
    (us, vs, ts) // the graph's own `ts`: every caller only reads the columns
  }

  /** All temporal edges as internal-id triples (u, v, t), in that order. */
  def internalEdges: Array[(Int, Int, Int)] = {
    val (us, vs, ts) = columns
    Array.tabulate(us.length)(e => (us(e), vs(e), ts(e)))
  }

  /** All temporal edges in original-label space. */
  def labeledEdges: Array[(Long, Long, Long)] =
    internalEdges.map { case (u, v, t) => (uLabels(u), vLabels(v), tLabels(t)) }

  /** Returns a copy with V-side internal ids permuted: new id `r` is old id
    * `perm(r)`. Used by VFree's ascending-structural-degree ID reorder.
    * `vLabels` is permuted consistently so results keep original labels.
    */
  def relabelV(perm: Array[Int]): TemporalBipartiteGraph = {
    require(perm.length == nV, s"perm size ${perm.length} != nV $nV")
    val inv = new Array[Int](nV)
    perm.indices.foreach(r => inv(perm(r)) = r)
    val (us, vs, ts) = columns
    TemporalBipartiteGraph.fromInternal(us, vs.map(inv(_)), ts, uLabels, perm.map(vLabels(_)), tLabels)
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

  /** Stable counting sort of `idx` by `key(e)` ∈ `[0, n)`: the sorted
    * indices and the n + 1 bucket offsets (bucket k is `[off(k), off(k + 1))`).
    */
  private[repro] def countingSort(idx: Array[Int], n: Int)(key: Int => Int): (Array[Int], Array[Int]) = {
    val off = new Array[Int](n + 1); val out = new Array[Int](idx.length)
    for (i <- idx.indices) off(key(idx(i)) + 1) += 1
    for (k <- 0 until n) off(k + 1) += off(k)
    val next = java.util.Arrays.copyOf(off, n)
    for (i <- idx.indices) { val k = key(idx(i)); out(next(k)) = idx(i); next(k) += 1 }
    (out, off)
  }

  /** The one builder. Edge `e` is `(us(e), vs(e), ts(e))` in internal ids;
    * the label arrays fix `nU`/`nV`/`nT`, so isolated vertices and empty
    * timestamps are allowed. Duplicate edges are dropped; the columns are
    * only read. O(|E| + nT·(nU + nV)). Rejects nT·(nU + nV) ≥ `Int.MaxValue`.
    */
  private[repro] def fromInternal(us: Array[Int], vs: Array[Int], ts: Array[Int],
                                  uLabels: Array[Long], vLabels: Array[Long],
                                  tLabels: Array[Long]): TemporalBipartiteGraph = {
    val nU = uLabels.length; val nV = vLabels.length; val nT = tLabels.length
    require(nT.toLong * (nU.toLong + nV) < Int.MaxValue,
      s"graph too large: nT·(nU+nV) = ${nT}·(${nU}+${nV}) must be below Int.MaxValue = ${Int.MaxValue}")
    require(vs.length == us.length && ts.length == us.length, "id columns differ in length")
    for (e <- us.indices)
      require(us(e) >= 0 && us(e) < nU && vs(e) >= 0 && vs(e) < nV && ts(e) >= 0 && ts(e) < nT,
        s"edge out of range: (${us(e)},${vs(e)},${ts(e)})")

    // (u, v, t) order, least significant key first. Keep the first edge of
    // each run of equal triples (`te`, with its static edge `sOf`) and the
    // first of each run of equal (u, v) (`se`, the static edges).
    val byT = countingSort(Array.range(0, us.length), nT)(ts(_))._1
    val ord = countingSort(countingSort(byT, nV)(vs(_))._1, nU)(us(_))._1
    val te, sOf, se = new Array[Int](ord.length)
    var nTe, nSe = 0; var p = -1
    for (i <- ord.indices) {
      val e = ord(i)
      val newStatic = p < 0 || us(p) != us(e) || vs(p) != vs(e)
      if (newStatic) { se(nSe) = e; nSe += 1 }
      if (newStatic || ts(p) != ts(e)) { te(nTe) = e; sOf(nTe) = nSe - 1; nTe += 1 }
      p = e
    }

    // Each view sorts the kept edges, already in (u, v, t) order, by its
    // key; the sort is stable, so every list comes out ascending.
    def view(m: Int, n: Int)(key: Int => Int, value: Int => Int): (Array[Int], Array[Int]) = {
      val (nbr, off) = countingSort(Array.range(0, m), n)(key) // kept-edge indices, then their values
      for (i <- 0 until m) nbr(i) = value(nbr(i))
      (off, nbr)
    }
    val (uOff, uNbr) = view(nSe, nU)(i => us(se(i)), i => vs(se(i)))
    val (tsOff, tsOf) = view(nTe, nSe)(sOf(_), i => ts(te(i)))
    val (vOff, vNbr) = view(nSe, nV)(i => vs(se(i)), i => us(se(i)))
    def snapshots(n: Int, side: Array[Int], other: Array[Int]) = // keyed t·n + w, as keyU and keyV
      view(nTe, nT * n)(i => ts(te(i)) * n + side(te(i)), i => other(te(i)))
    val (gUOff, gUNbr) = snapshots(nU, us, vs)
    val (gVOff, gVNbr) = snapshots(nV, vs, us)
    new TemporalBipartiteGraph(nU, nV, nT, uOff, uNbr, tsOff, tsOf, vOff, vNbr, gUOff, gUNbr, gVOff, gVNbr,
      uLabels, vLabels, tLabels)
  }
}
