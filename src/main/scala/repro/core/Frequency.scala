package repro.core

import repro.graph.{SortedOps, StaticIndex, TemporalBipartiteGraph}

/** Frequency-verification machinery: the naive per-timestamp intersection
  * check (FilterV's `useArrayVerify = false` path: FilterV-VM, FilterV- and
  * BK-ALG+), the array-based
  * CheckFRE of Algorithm 3, and the T(v) bitsets behind the candidate
  * filtering rule of Lemma 3.2.
  */
object Frequency {

  /** Naive frequency verification: for each timestamp intersect the
    * m-neighbor lists of all vertices in `vs` and count timestamps where the
    * common m-neighbor count reaches τ_U. Early-exits once `lambda` support
    * timestamps are found or become unreachable.
    */
  object NaiveFreq {

    /** ∩ of the Γ lists of V-slots of one t, as ascending U-slot ids. */
    private def common(g: TemporalBipartiteGraph, slots: Array[Int]): Array[Int] = {
      var acc = java.util.Arrays.copyOfRange(g.gVNbr, g.gVOff(slots(0)), g.gVOff(slots(0) + 1))
      var i = 1
      while (i < slots.length && acc.nonEmpty) {
        acc = SortedOps.intersect(acc, g.gVNbr, g.gVOff(slots(i)), g.gVOff(slots(i) + 1)); i += 1
      }
      acc
    }

    /** true iff `vs` (non-empty) has ≥ λ support timestamps with ≥ τ_U
      * common m-neighbors. Only the timestamps of vs(0)'s slots can
      * qualify; the other vertices each keep one slot cursor as t ascends.
      */
    def isFrequent(g: TemporalBipartiteGraph, vs: Array[Int], tauU: Int, lambda: Int): Boolean = {
      val cursor = vs.map(g.vSlotOff(_))
      val slots = new Array[Int](vs.length)
      var found = 0
      var k = g.vSlotOff(vs(0))
      val kEnd = g.vSlotOff(vs(0) + 1)
      while (k < kEnd) {
        val t = g.vSlotT(k)
        slots(0) = k
        var present = true
        var i = 1
        while (i < vs.length && present) {
          val end = g.vSlotOff(vs(i) + 1)
          while (cursor(i) < end && g.vSlotT(cursor(i)) < t) cursor(i) += 1
          present = cursor(i) < end && g.vSlotT(cursor(i)) == t
          slots(i) = cursor(i)
          i += 1
        }
        if (present && common(g, slots).length >= tauU) {
          found += 1
          if (found >= lambda) return true
        }
        // not enough timestamps left to still reach lambda
        if (found + (kEnd - k - 1) < lambda) return false
        k += 1
      }
      false
    }
  }

  /** Array-based frequency verification (Algorithm 3), over the static
    * views of a graph's [[StaticIndex]]: N(u) and, per static edge, T(u, v),
    * which the constructor reads, so the index builds T(u, v) then.
    *
    * Holds one Reborn Array and one Update Array of length |T| which are
    * reused across calls, exactly as the paper's structures. Not
    * thread-safe — allocate one instance per search thread/partition.
    */
  final class CheckFre(index: StaticIndex) {
    private val nT = index.nT
    private val uOff = index.uOff; private val uNbr = index.uNbr
    private val tsOff = index.tsOff; private val ts = index.ts
    private val ra = new Array[Int](nT) // Reborn Array: u's m-neighbors in V_S per t
    private val ua = new Array[Int](nT) // Update Array: common m-neighbors of V_S per t

    /** Algorithm 3: returns true iff V_S (given via membership flags and
      * size) has ≥ λ support timestamps. `us` holds the common s-neighbors
      * of V_S (only its first `usLen` entries are read).
      */
    def frequent(us: Array[Int], usLen: Int, vsMember: Array[Boolean], vsSize: Int,
                 tauU: Int, lambda: Int): Boolean = {
      java.util.Arrays.fill(ua, 0)
      var i = 0
      while (i < usLen) {
        val u = us(i)
        java.util.Arrays.fill(ra, 0)
        var j = uOff(u)
        while (j < uOff(u + 1)) {
          if (vsMember(uNbr(j))) {
            var k = tsOff(j)
            while (k < tsOff(j + 1)) { ra(ts(k)) += 1; k += 1 }
          }
          j += 1
        }
        var t = 0
        while (t < nT) { if (ra(t) == vsSize) ua(t) += 1; t += 1 }
        i += 1
      }
      var cnt = 0
      var t = 0
      while (t < nT) {
        if (ua(t) >= tauU) { cnt += 1; if (cnt >= lambda) return true }
        t += 1
      }
      false
    }
  }

  /** T(v) bitsets for the candidate filtering rule (Lemma 3.2):
    * T(v) = { t : δ(v,t) ≥ τ_U } packed into Long words, so the rule
    * |∩_{v∈V_S∪{v'}} T(v)| < λ is a popcount over an AND.
    */
  final class TBits(g: TemporalBipartiteGraph, tauU: Int) {
    val words: Int = (g.nT + 63) >>> 6
    /** v -> bitset of timestamps where δ(v,t) ≥ τ_U. */
    val bits: Array[Array[Long]] = Array.tabulate(g.nV) { v =>
      val b = new Array[Long](words)
      var k = g.vSlotOff(v)
      while (k < g.vSlotOff(v + 1)) {
        if (g.gVOff(k + 1) - g.gVOff(k) >= tauU) b(g.vSlotT(k) >>> 6) |= 1L << (g.vSlotT(k) & 63)
        k += 1
      }
      b
    }

    /** Bitset with every timestamp set (the T-intersection of V_S = ∅). */
    def full: Array[Long] = {
      val b = Array.fill(words)(-1L)
      val rem = g.nT & 63
      if (words > 0 && rem != 0) b(words - 1) = (1L << rem) - 1
      b
    }

    def and(a: Array[Long], b: Array[Long]): Array[Long] = {
      val out = new Array[Long](words)
      var i = 0
      while (i < words) { out(i) = a(i) & b(i); i += 1 }
      out
    }

    /** popcount(a & b) with early exit once `atLeast` is reached. */
    def andCountAtLeast(a: Array[Long], b: Array[Long], atLeast: Int): Boolean = {
      var c = 0
      var i = 0
      while (i < words) {
        c += java.lang.Long.bitCount(a(i) & b(i))
        if (c >= atLeast) return true
        i += 1
      }
      false
    }
  }
}
