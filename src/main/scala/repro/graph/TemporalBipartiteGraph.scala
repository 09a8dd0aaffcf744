package repro.graph

import org.apache.spark.sql.DataFrame

import scala.collection.mutable

/** Compact in-memory temporal bipartite graph `G = (U, V, E)`.
  *
  * Vertices have dense internal ids `0 until nU` / `0 until nV` and
  * timestamps `0 until nT`; the label arrays map them back to the input's
  * ids so enumeration results are reported in input-id space. A graph built
  * from labels ([[TemporalBipartiteGraph.fromEdges]], `fromDF`) numbers
  * each side in ascending label order.
  *
  * Three views are materialised, all needed by the paper's algorithms:
  *
  *  - static CSR with per-edge timestamp lists (`uAdj`/`uAdjTs`) — drives
  *    `N(·,G)` intersections and CheckFRE (Algorithm 3), which iterates
  *    `T_{(u,v)}` per static edge;
  *  - the reverse static adjacency `vAdj` (structural degrees of V);
  *  - per-snapshot adjacency (`gammaU(t)(u)`, `gammaV(t)(v)`) — drives the
  *    m-neighbor scans of GFCore (Algorithm 2) and VFree (Algorithm 4).
  *
  * Every graph comes from one builder, `fromInternal`, over packed `Int` id
  * columns: a stable LSD counting sort orders the edges by `(u, v, t)`,
  * adjacent duplicates are dropped, and all views are filled from that one
  * ordering. Derived graphs map the id columns and build again: `relabelV`
  * permutes V, `collapseStatic` zeroes `t`, and GFCore's compaction drops
  * ids without a surviving edge while keeping the survivors' relative order
  * (so a graph numbered in label order stays in label order).
  *
  * Size bound: nT·(nU + nV) ≤ `Int.MaxValue`, checked by the builder, so a
  * per-snapshot vertex table indexed `t·(nU + nV) + w` (GFCore's) has `Int`
  * indices.
  *
  * The class is immutable and `Serializable` so it can be broadcast to
  * executors for the distributed enumeration.
  */
final class TemporalBipartiteGraph private (
    val nU: Int,
    val nV: Int,
    val nT: Int,
    /** u -> sorted distinct static neighbours in V. */
    val uAdj: Array[Array[Int]],
    /** u -> per-static-edge sorted timestamp list (parallel to `uAdj`). */
    val uAdjTs: Array[Array[Array[Int]]],
    /** v -> sorted distinct static neighbours in U. */
    val vAdj: Array[Array[Int]],
    /** t -> u -> sorted m-neighbours Γ(u,t) ⊆ V. */
    val gammaU: Array[Array[Array[Int]]],
    /** t -> v -> sorted m-neighbours Γ(v,t) ⊆ U. */
    val gammaV: Array[Array[Array[Int]]],
    /** internal u id -> original label. */
    val uLabels: Array[Long],
    /** internal v id -> original label. */
    val vLabels: Array[Long],
    /** internal t id -> original timestamp. */
    val tLabels: Array[Long],
) extends Serializable {

  /** Number of distinct temporal edges `(u, v, t)`. */
  val temporalEdgeCount: Long = {
    var s = 0L; var u = 0
    while (u < nU) { val ts = uAdjTs(u); var i = 0; while (i < ts.length) { s += ts(i).length; i += 1 }; u += 1 }
    s
  }

  /** Number of distinct static edges `(u, v)`. */
  val staticEdgeCount: Long = { var s = 0L; var u = 0; while (u < nU) { s += uAdj(u).length; u += 1 }; s }

  /** Structural degree d(v, G) for v ∈ V. */
  def sDegV(v: Int): Int = vAdj(v).length

  /** Structural degree d(u, G) for u ∈ U. */
  def sDegU(u: Int): Int = uAdj(u).length

  /** Momentary degree δ(v, t) for v ∈ V. */
  def mDegV(v: Int, t: Int): Int = gammaV(t)(v).length

  /** Momentary degree δ(u, t) for u ∈ U. */
  def mDegU(u: Int, t: Int): Int = gammaU(t)(u).length

  /** All temporal edges as packed id columns `(us, vs, ts)`, in `(u, v, t)` order. */
  private def columns: (Array[Int], Array[Int], Array[Int]) = {
    val us, vs, ts = new mutable.ArrayBuilder.ofInt
    for (u <- 0 until nU; i <- uAdj(u).indices; t <- uAdjTs(u)(i)) { us += u; vs += uAdj(u)(i); ts += t }
    (us.result(), vs.result(), ts.result())
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

  /** Stable counting sort of the edge indices `idx` by `key(e)` ∈ `[0, n)`. */
  private def countingSort(idx: Array[Int], key: Array[Int], n: Int): Array[Int] = {
    val next = new Array[Int](n + 1)
    idx.foreach(e => next(key(e) + 1) += 1)
    for (k <- 0 until n) next(k + 1) += next(k)
    val out = new Array[Int](idx.length)
    idx.foreach { e => out(next(key(e))) = e; next(key(e)) += 1 }
    out
  }

  /** For each key in `[0, n)`, the `value(i)` of every `i < m` with that
    * `key(i)`, in order of `i`.
    */
  private def group(n: Int, m: Int)(key: Int => Int, value: Int => Int): Array[Array[Int]] = {
    val len = new Array[Int](n)
    for (i <- 0 until m) len(key(i)) += 1
    val out = len.map(k => if (k == 0) Array.emptyIntArray else new Array[Int](k))
    java.util.Arrays.fill(len, 0)
    for (i <- 0 until m) { val k = key(i); out(k)(len(k)) = value(i); len(k) += 1 }
    out
  }

  /** The one builder. Edge `e` is `(us(e), vs(e), ts(e))` in internal ids;
    * the label arrays fix `nU`/`nV`/`nT`, so isolated vertices and empty
    * timestamps are allowed. Duplicate edges are dropped; the columns are
    * only read. O(|E| + nT·(nU + nV)). Rejects nT·(nU + nV) > `Int.MaxValue`.
    */
  private[repro] def fromInternal(us: Array[Int], vs: Array[Int], ts: Array[Int],
                                  uLabels: Array[Long], vLabels: Array[Long],
                                  tLabels: Array[Long]): TemporalBipartiteGraph = {
    val nU = uLabels.length; val nV = vLabels.length; val nT = tLabels.length
    require(nT.toLong * (nU.toLong + nV) <= Int.MaxValue,
      s"graph too large: nT·(nU+nV) = ${nT}·(${nU}+${nV}) exceeds Int.MaxValue = ${Int.MaxValue}")
    require(vs.length == us.length && ts.length == us.length, "id columns differ in length")
    for (e <- us.indices)
      require(us(e) >= 0 && us(e) < nU && vs(e) >= 0 && vs(e) < nV && ts(e) >= 0 && ts(e) < nT,
        s"edge out of range: (${us(e)},${vs(e)},${ts(e)})")

    // (u, v, t) order, least significant key first. Keep the first edge of
    // each run of equal triples (`te`, with its static edge `sOf`) and the
    // first of each run of equal (u, v) (`se`, the static edges).
    val ord = countingSort(countingSort(countingSort(us.indices.toArray, ts, nT), vs, nV), us, nU)
    val teB = new mutable.ArrayBuilder.ofInt; val sOfB = new mutable.ArrayBuilder.ofInt
    val seB = new mutable.ArrayBuilder.ofInt
    var p = -1
    for (e <- ord) {
      val newStatic = p < 0 || us(p) != us(e) || vs(p) != vs(e)
      if (newStatic) seB += e
      if (newStatic || ts(p) != ts(e)) { teB += e; sOfB += seB.length - 1 }
      p = e
    }
    val (te, sOf, se) = (teB.result(), sOfB.result(), seB.result())

    // every list is filled in (u, v, t) order, so each comes out ascending
    val uAdj = group(nU, se.length)(i => us(se(i)), i => vs(se(i)))
    val vAdj = group(nV, se.length)(i => vs(se(i)), i => us(se(i)))
    val tsOfStatic = group(se.length, te.length)(sOf(_), i => ts(te(i)))
    var off = 0
    val uAdjTs = uAdj.map { a => off += a.length; tsOfStatic.slice(off - a.length, off) }
    def snapshots(n: Int, side: Array[Int], other: Array[Int]): Array[Array[Array[Int]]] = {
      val flat = group(nT * n, te.length)(i => ts(te(i)) * n + side(te(i)), i => other(te(i)))
      Array.tabulate(nT)(t => flat.slice(t * n, (t + 1) * n))
    }
    new TemporalBipartiteGraph(nU, nV, nT, uAdj, uAdjTs, vAdj, snapshots(nU, us, vs), snapshots(nV, vs, us),
      uLabels, vLabels, tLabels)
  }
}
