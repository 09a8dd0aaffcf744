package repro.core

import repro.graph.{SortedOps, TemporalBipartiteGraph}

import scala.collection.mutable

/** Filter-and-Verification framework (Algorithm 1) with its ablations.
  *
  * Per search node (U_S, V_S, C_V, X_V):
  *  - the candidate set is first shrunk by the Lemma 3.2 T(v)-bitset rule
  *    (`useCandFilter = false` ⇒ FilterV-FR);
  *  - the valid candidate set C_V* is computed by verifying the frequency of
  *    V_S ∪ {v} for each surviving candidate, with CheckFRE (Algorithm 3) or
  *    the naive per-timestamp intersection (`useArrayVerify = false` ⇒
  *    FilterV-VM; both toggles off ⇒ FilterV-);
  *  - when C_V* = ∅, maximality is verified via Lemma 3.3 over X_V (or, in
  *    the -VM ablations, by comparing against recorded results).
  *
  * The graph filter (GFCore) is applied by [[Enumerators]] before
  * construction, matching the paper's experimental setup where every
  * algorithm gets the graph filtering technique by default.
  *
  * Candidates are processed in ascending id order, so V_S along a branch is
  * an ascending sequence — kept in a flat int stack (`vsStack`), which the
  * naive verification and result recording read without re-sorting.
  *
  * `stats.cmNanos` accumulates valid-candidate-set computation plus
  * maximality verification time — the "FilterV-CM" quantity of Table 1.
  */
final class FilterV(g: TemporalBipartiteGraph, p: Params,
                    useCandFilter: Boolean, useArrayVerify: Boolean,
                    deadline: Deadline) {
  val stats = new EnumStats

  private val tb = if (useCandFilter) new Frequency.TBits(g, p.tauU) else null
  private val checkFre = new Frequency.CheckFre(g)
  private val vsMember = new Array[Boolean](g.nV)
  private val vsStack = new Array[Int](math.max(1, g.nV)) // ascending branch ids
  // Per-depth C_V* segments; the bottom nV entries are the root's candidates.
  private var cvStack: Array[Int] = Array.range(0, g.nV)
  // X_V: ids are distinct along a branch, so at most nV; each node resets to its mark.
  private val xv = new Array[Int](math.max(1, g.nV))
  private var xvLen = 0
  private val results = mutable.ArrayBuffer.empty[Array[Int]] // ascending ids

  /** Frequency of V_S ∪ {v}; V_S = vsStack[0, vsLen) (ascending, v larger). */
  private def extensionFrequent(usv: Array[Int], v: Int, vsLen: Int): Boolean = {
    stats.freqChecks += 1
    if (useArrayVerify) {
      vsMember(v) = true
      val ok = checkFre.frequent(usv, usv.length, vsMember, vsLen + 1, p.tauU, p.lambda)
      vsMember(v) = false
      ok
    } else {
      val vs2 = java.util.Arrays.copyOf(vsStack, vsLen + 1)
      vs2(vsLen) = v
      if (vsLen > 0 && v < vs2(vsLen - 1)) java.util.Arrays.sort(vs2) // X_V entries may be smaller
      Frequency.NaiveFreq.isFrequent(g, vs2, p.tauU, p.lambda)
    }
  }

  /** Lemma 3.3 maximality: no x ∈ X_V extends V_S to a frequent group. */
  private def maximalViaXv(us: Array[Int], vsLen: Int, tsBits: Array[Long]): Boolean = {
    var i = 0
    while (i < xvLen) {
      val x = xv(i)
      val prunedByRule = useCandFilter && !tb.andCountAtLeast(tsBits, tb.bits(x), p.lambda)
      if (!prunedByRule) {
        val usx = SortedOps.intersect(us, g.vNbr, g.vOff(x), g.vOff(x + 1))
        if (usx.length >= p.tauU && extensionFrequent(usx, x, vsLen)) return false
      }
      i += 1
    }
    true
  }

  /** Naive maximality for the -VM ablations: subset check against recorded
    * results (complete under the lexicographic DFS order, see DESIGN.md §6).
    */
  private def recordCompared(vs: Array[Int]): Unit =
    if (!results.exists(r => SortedOps.subsetOf(vs, r))) results += vs

  /** One node: V_S = vsStack[0, vsLen), candidates = cvStack[cvFrom, cvEnd),
    * the top segment; this node's C_V* goes directly above it.
    */
  private def enum(us: Array[Int], vsLen: Int, tsBits: Array[Long], cvFrom: Int, cvEnd: Int): Unit = {
    deadline.check(stats.nodes)
    stats.nodes += 1

    // --- valid candidate set computation (timed as CM) -------------------
    val t0 = System.nanoTime()
    if (2 * cvEnd - cvFrom > cvStack.length)
      cvStack = java.util.Arrays.copyOf(cvStack, math.max(2 * cvEnd - cvFrom, 2 * cvStack.length))
    val cv = cvStack // a child may replace `cvStack` when it grows; re-read after recursing
    var nCv = 0
    val cvStarUs = mutable.ArrayBuffer.empty[Array[Int]]
    var i = cvFrom
    while (i < cvEnd) {
      val v = cv(i)
      val keep = !useCandFilter || tb.andCountAtLeast(tsBits, tb.bits(v), p.lambda)
      if (keep) {
        val usv = SortedOps.intersect(us, g.vNbr, g.vOff(v), g.vOff(v + 1))
        if (usv.length >= p.tauU && extensionFrequent(usv, v, vsLen)) {
          cv(cvEnd + nCv) = v
          nCv += 1
          cvStarUs += usv
        }
      }
      i += 1
    }
    stats.cmNanos += System.nanoTime() - t0

    if (us.length < p.tauU || vsLen + nCv < p.tauV) return

    if (nCv == 0) {
      val t1 = System.nanoTime()
      if (useArrayVerify) {
        if (maximalViaXv(us, vsLen, tsBits)) results += java.util.Arrays.copyOf(vsStack, vsLen)
      } else {
        recordCompared(java.util.Arrays.copyOf(vsStack, vsLen))
      }
      stats.cmNanos += System.nanoTime() - t1
      return
    }

    // C_V* = cvStack[cvEnd, cvEnd + nCv), ascending (candidate order preserved)
    val mark = xvLen
    var j = 0
    while (j < nCv) {
      val v = cvStack(cvEnd + j)
      vsMember(v) = true
      vsStack(vsLen) = v
      val childBits = if (useCandFilter) tb.and(tsBits, tb.bits(v)) else null
      enum(cvStarUs(j), vsLen + 1, childBits, cvEnd + j + 1, cvEnd + nCv)
      vsMember(v) = false
      xv(xvLen) = v
      xvLen += 1
      j += 1
    }
    xvLen = mark
  }

  /** Runs the enumeration; returns MFGs in original-label space. */
  def run(): Set[Set[Long]] = {
    enum(Array.range(0, g.nU), 0, if (useCandFilter) tb.full else null, 0, g.nV)
    results.iterator.map(_.map(g.vLabels).toSet).toSet
  }
}
