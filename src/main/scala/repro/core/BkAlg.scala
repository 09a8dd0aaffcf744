package repro.core

import repro.graph.{SortedOps, TemporalBipartiteGraph}

import scala.collection.mutable

/** Baseline BK-ALG (Section 3, "Baseline method").
  *
  * Directly extends the Bron-Kerbosch framework: maintain (U_S, V_S, C_V),
  * expand V_S one candidate at a time, check the frequency constraint with
  * the naive per-timestamp intersection, and verify maximality by comparing
  * a terminal set against the results found so far. Because the DFS visits
  * increasing-id sequences in lexicographic order, any MFG containing a
  * terminal non-maximal set has already been recorded, so the subset check
  * against recorded results is complete, and no recorded result is ever a
  * subset of a later one (tests check BK-ALG+ against the brute-force oracle).
  *
  * BK-ALG+ (the variant actually benchmarked in the paper) is BkAlg run on
  * the GFCore-filtered graph — see [[Enumerators.bkAlgPlus]].
  */
final class BkAlg(g: TemporalBipartiteGraph, p: Params, deadline: Deadline) {
  val stats = new EnumStats
  private val results = mutable.ArrayBuffer.empty[Array[Int]] // each ascending

  private def record(vs: Array[Int]): Unit =
    if (!results.exists(r => SortedOps.subsetOf(vs, r))) results += vs

  // V_S along a branch is ascending (candidates processed in id order)
  private val vsStack = new Array[Int](math.max(1, g.nV))

  private def enum(us: Array[Int], vsLen: Int, cv: Array[Int], from: Int): Unit = {
    deadline.check()
    stats.nodes += 1
    var extended = false
    var i = from
    while (i < cv.length) {
      val v = cv(i)
      val usv = SortedOps.intersect(us, g.vNbr, g.vOff(v), g.vOff(v + 1))
      if (usv.length >= p.tauU) {
        stats.freqChecks += 1
        val vs2 = java.util.Arrays.copyOf(vsStack, vsLen + 1)
        vs2(vsLen) = v
        if (Frequency.NaiveFreq.isFrequent(g, vs2, p.tauU, p.lambda)) {
          extended = true
          vsStack(vsLen) = v
          enum(usv, vsLen + 1, cv, i + 1)
        }
      }
      i += 1
    }
    if (!extended && vsLen >= p.tauV && us.length >= p.tauU) {
      val t0 = System.nanoTime()
      record(java.util.Arrays.copyOf(vsStack, vsLen))
      stats.cmNanos += System.nanoTime() - t0
    }
  }

  /** Runs the enumeration; returns MFGs in original-label space. */
  def run(): Set[Set[Long]] = {
    enum(Array.range(0, g.nU), 0, Array.range(0, g.nV), 0)
    results.iterator.map(_.map(g.vLabels).toSet).toSet
  }
}
