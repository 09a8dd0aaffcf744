package repro.core

import repro.graph.TemporalBipartiteGraph

import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

import scala.collection.mutable

/** Verification-Free approach (Algorithm 4).
  *
  * Timestamp-oriented search: for the branch extending V_S with v, iterate
  * only the inherited survived timestamps C_T and maintain the dynamic
  * counting structures
  *
  *  - `cntU(k)` — m-neighbours of u inside V_S' at t, indexed by the
  *    U-slot k of (u, t) (incrementally inherited across the recursion: +1
  *    on entry for Γ(v,t), -1 on exit);
  *  - `cntVT(k')`   — m-neighbours of v' inside cand_U at t (the paper's
  *    `cnt_V[t][v']`), indexed by the V-slot k' of (v', t); `visitV` stamps
  *    each slot with the pass over t that last touched it, the paper's
  *    `visit_V`;
  *  - `cntT(v')`    — survived timestamps of V_S' ∪ {v'}.
  *
  * The valid candidate set falls out of `cntT` with no explicit frequency
  * verification, and maximality falls out of the ascending-id processing
  * order (Theorem 4.1) with no result comparisons. V_S is ascending and v
  * is its largest id, so Step 3 counts only the v' > v: each ascending
  * Γ(u, t) is scanned from its end down to v's slot at t (within one t,
  * slot order is vertex order), and no v' there is in V_S. The lower ids
  * v' < v matter only to Theorem 4.1's test at a would-be result (V_S'
  * frequent, C_V* = ∅, |V_S'| ≥ τ_V), so `notRepeat` counts them there
  * alone, stopping at the first v' that extends V_S'. Steps 1–2 run as one
  * pass that merges the ascending C_T with v's slots and stores each
  * survived t's cand_U; Steps 3–4 then run over the stored lists, and only
  * at a frequent node that the dominance cut (below) keeps. The restore
  * step takes the same merge as Step 1. A V-slot's v (`vOfSlot`) is read
  * only when its count reaches τ_U. The search makes no clock calls per
  * node: [[runSeed]] times each seed as one span of `stats.cmNanos`.
  *
  * A search node allocates nothing. cand_U and cand_V are shared arrays
  * that a node fills and consumes before its first recursive call. C_T' and
  * C_V* outlive that call, so each node keeps them as one segment of a
  * growable `Int` stack above its parent's; the child reads its C_T from
  * the parent's segment. V_S is an array indexed by depth.
  *
  * Memory per engine, with S_U and S_V the U- and V-slots (each at most
  * |E|) and M the largest Σ_t |Γ(v, t)| of any v: S_U + S_V + 2·M + 2·nT +
  * 4·nV `Int`s (the counts; the stored cand_U lists and Step 3's count on
  * each entry; their sizes and v's slots per t; `cntT`, `cntFull`, cand_V
  * and V_S), S_V `Long`s (`visitV`), 2·nV `Boolean`s, and a stack that
  * starts at nT entries and holds at most nT + depth·(nT + nV); [[run]]
  * with k workers holds k engines. Depth: a node is expanded only from a
  * frequent parent, so every node below a root is a frequent group, and a
  * node expands children only when its head ∪ tail is not frequent; the
  * recursion is no deeper than the largest frequent group. The node count
  * no longer grows with 2^depth: the lookahead cut takes K(3, 40) at
  * (3, 2, 3) in 40 nodes, one per seed at depth 1, against the 2^40 − 1 of
  * its subset lattice.
  * A frame holds only scalars: depth 1,999 runs on a 512 KB thread stack,
  * and the tests run it on 1 MB, the JVM's default thread stack on 64-bit
  * Linux. Worker threads are created with that default (or `-Xss`, if the
  * JVM is given one), so they get the stack the caller's threads get.
  *
  * The caller numbers V by ascending structural degree in the graph's one
  * derived-graph builder (`keepSlots`), over the core's surviving slots
  * ([[GFCore.degreeOrdered]]) or, for VFree-, over every slot
  * ([[Enumerators.reorderByDegree]]) — see [[Enumerators.vFree]]. Root
  * branches are independent (Theorem 4.1: each seed's MFGs are globally
  * maximal), so the one search entry is [[runSeed]], which runs one seed on
  * this engine's thread. [[run]] fans the seeds out over worker threads in
  * this JVM, each with its own engine and the shared read-only graph, and
  * checks that no group is emitted twice; [[repro.spark.DistributedMfg]] fans
  * them out over a Spark Dataset.
  *
  * Two guards absent from the paper's printed pseudocode are added on its
  * line 40 (|C_T'| ≥ λ and |V_S'| ≥ τ_V): without them root-level seeds that
  * are themselves infrequent or undersized would be reported (DESIGN.md §6);
  * brute-force cross-validation pins this down.
  *
  * Three exact cuts are added to the printed algorithm. None changes the
  * results; each drops whole subtrees:
  *  - Dominance cut (Theorem 4.1). `notRepeat`'s lower-id pass sets the
  *    witness w to the v' it last found extending a would-be result of this
  *    seed; only this cut reads it, and [[runSeed]] resets it, so every
  *    counter of a seed is the same whatever the engine ran before. Let w be
  *    below v and outside V_S', and adjacent, at every survived t of a
  *    frequent node, to every u of cand_U(t). The node's descendants add
  *    only ids above v, so each frequent one keeps a subset of C_T' and of
  *    each cand_U, and w extends it as it extends V_S'. Theorem 4.1 would
  *    reject every would-be result of the subtree, so the node skips Steps
  *    3–4, its children, its emit and its `notRepeat` call
  *    (`stats.dominatedCuts`). The test runs right after Steps 1–2, one
  *    merge of each stored cand_U(t) with Γ(w, t). It is the maximality
  *    pruning of MBEA/iMBEA for maximal bicliques (Zhang et al., BMC
  *    Bioinformatics 2014) and LCM's closure test (Uno, Kiyomi & Arimura,
  *    FIMI 2004), asked of the witness alone.
  *  - Cover cut. Let some v' of C_V* be adjacent, at every survived t of a
  *    frequent node, to every u of cand_U(t). A child v'' > v' and its
  *    descendants never contain v', and each frequent one keeps a subset of
  *    C_T' and of each cand_U, so v' extends it and Theorem 4.1 would reject
  *    every would-be result there. The node expands its children up to the
  *    smallest such v' and skips the rest (`stats.coverCuts`). Step 3 finds
  *    v' at one compare per counted entry: `cntFull` counts, per v', the t
  *    at which its count reaches |cand_U(t)|. This is MAFIA's
  *    parent-equivalence pruning (Burdick, Calimlim & Gehrke, ICDE 2001)
  *    and iMBEA's move into R of a candidate adjacent to all of L' (Zhang et
  *    al., BMC Bioinformatics 2014).
  *  - Lookahead cut (Lemma 2.2). Every node below a frequent node V_S' is a
  *    subset of its head ∪ tail H = V_S' ∪ C_V*. When H is frequent (and
  *    |H| ≥ τ_V), H is the only group there that can be maximal, so the
  *    node skips its children and gives H to Theorem 4.1's test instead
  *    (`stats.lookaheadCuts`). Step 3 counts every id above v, so no id
  *    above v outside C_V* extends V_S', and none extends H; the lower-id
  *    pass, run over H's cand_U lists, decides, and sets the witness as at
  *    any would-be result. The test runs after Step 3: at each survived t
  *    it keeps the u of cand_U(t) whose Γ(u, t) holds every v' of C_V*,
  *    walking only the entries that Step 3 counted above v and skipping,
  *    unread, a u with fewer of them than |C_V*|. It drops a t once fewer
  *    than τ_U of its u can stay and stops once fewer than λ timestamps
  *    can. When every v' of C_V* covers the node, H keeps the node's lists
  *    and the test reads nothing. This is Max-Miner's lookahead (Bayardo,
  *    SIGMOD 1998) and MAFIA's frequent head ∪ tail pruning (FHUT; Burdick,
  *    Calimlim & Gehrke, ICDE 2001).
  */
final class VFree(g: TemporalBipartiteGraph, p: Params, deadline: Deadline) {
  val stats = new EnumStats

  private val gUOff = g.gUOff; private val gUNbr = g.gUNbr
  private val gVOff = g.gVOff; private val gVNbr = g.gVNbr
  private val vSlotOff = g.vSlotOff; private val vSlotT = g.vSlotT; private val vOfSlot = g.vOfSlot
  private val cntU = new Array[Int](g.uSlotT.length)
  private val cntVT = new Array[Int](vSlotT.length)
  private val cntT = new Array[Int](g.nV)
  private val cntFull = new Array[Int](g.nV) // survived t at which v' is adjacent to all of cand_U(t)
  private val inVS = new Array[Boolean](g.nV)
  private val visitV = new Array[Long](vSlotT.length) // last timestamp pass that touched the slot
  private var pass = 0L // a Long count cannot wrap in any run, so visitV is never reset
  // Filled and consumed by one node before its first recursive call.
  // candU holds the cand_U (U-slots) of each survived t back to back, so it
  // is sized to the largest Σ_t |Γ(v, t)|; candN(i) and candK(i) are the
  // size of the i-th survived t's cand_U and v's slot at that t.
  private val candU = new Array[Int]((0 until g.nV).iterator
    .map(v => gVOff(vSlotOff(v + 1)) - gVOff(vSlotOff(v))).maxOption.getOrElse(0))
  private val candN = new Array[Int](g.nT)
  private val candK = new Array[Int](g.nT)
  // Set by Step 3 per stored cand_U entry: how many entries of Γ(u, t) lie
  // above v's slot, the last ones of the list.
  private val candCnt = new Array[Int](candU.length)
  private val inCv = new Array[Boolean](g.nV) // marks C_V* during the lookahead test
  private val candV = new Array[Int](g.nV)
  private val vs = new Array[Int](g.nV) // V_S by depth, ascending
  // Per-depth segments [C_T' | C_V*]; the bottom nT entries are the root's C_T.
  private var stack: Array[Int] = Array.range(0, g.nT)
  private val results = mutable.ArrayBuffer.empty[Array[Int]] // ascending internal ids
  private var witness = -1 // the v' that last extended a would-be result of this seed, or −1
  private var cover = -1 // set by validCandidates: the smallest v' of C_V* that covers the node, or −1
  private var covers = 0 // set by validCandidates: how many v' of C_V* cover the node

  /** The first of v's slots in [k, kEnd) whose t is not below `t`. */
  private def seek(k: Int, kEnd: Int, t: Int): Int = {
    var j = k
    while (j < kEnd && vSlotT(j) < t) j += 1
    j
  }

  /** One iteration of the `for v ∈ C_V` loop of VerifyFreeMFG: extends
    * V_S = vs[0, depth) with `v`, using the inherited survived timestamps
    * stack[ctOff, ctOff + ctLen); this node's segment starts at `base`.
    */
  private def branch(v: Int, depth: Int, ctOff: Int, ctLen: Int, base: Int): Unit = {
    deadline.check(stats.nodes)
    stats.nodes += 1
    val vsSize2 = depth + 1
    if (vsSize2 > stats.maxDepth) stats.maxDepth = vsSize2
    inVS(v) = true
    vs(depth) = v
    if (base + ctLen + g.nV > stack.length)
      stack = java.util.Arrays.copyOf(stack, math.max(base + ctLen + g.nV, 2 * stack.length))
    val st = stack // a child may replace `stack` when it grows; re-read after recursing

    // Steps 1–2 in one pass over C_T, merged with v's slots: Step 1
    // ascertains from U the common m-neighbors of V_S' at t, Step 2 keeps t
    // when there are τ_U of them. Each survived t's cand_U goes back to back
    // into candU, with its size and v's slot at t in candN and candK.
    var nCt = 0
    var nCand = 0
    var touch1 = 0L
    val kEnd = vSlotOff(v + 1)
    var k = vSlotOff(v)
    var ti = 0
    while (ti < ctLen && k < kEnd) {
      val t = st(ctOff + ti)
      k = seek(k, kEnd, t)
      if (k < kEnd && vSlotT(k) == t) {
        var n = 0
        var i = gVOff(k)
        val end = gVOff(k + 1)
        touch1 += end - i
        while (i < end) {
          val su = gVNbr(i)
          val c = cntU(su) + 1
          cntU(su) = c
          if (c == vsSize2) { candU(nCand + n) = su; n += 1 }
          i += 1
        }
        if (n >= p.tauU) {
          st(base + nCt) = t
          candN(nCt) = n
          candK(nCt) = k
          nCt += 1
          nCand += n
        }
        k += 1
      }
      ti += 1
    }
    stats.step1Touches += touch1

    // A frequent node is cut when the witness dominates it; otherwise
    // Steps 3–4 run, then the lookahead test or Theorem 4.1's.
    if (nCt >= p.lambda) {
      val w = witness
      if (w >= 0 && w < v && !inVS(w) && dominates(w, base, nCt)) stats.dominatedCuts += 1
      else {
        val cvOff = base + nCt
        val nCv = validCandidates(nCt, cvOff)
        if (nCv > 0) {
          if (vsSize2 + nCv >= p.tauV) {
            val cov = cover // read before a child resets it
            java.util.Arrays.sort(st, cvOff, cvOff + nCv) // ascending processing order
            // When every v' of C_V* covers the node, H keeps its lists as they are.
            val nH = if (covers == nCv) nCt else headTailFrequent(nCt, nCv, cvOff)
            if (nH >= p.lambda) {
              stats.lookaheadCuts += 1
              if (notRepeat(nH)) {
                val h = java.util.Arrays.copyOf(vs, vsSize2 + nCv)
                System.arraycopy(st, cvOff, h, vsSize2, nCv)
                results += h
              }
            } else {
              // Children above the cover are skipped.
              var si = 0
              var done = false
              while (!done) {
                val c = stack(cvOff + si)
                branch(c, vsSize2, base, nCt, cvOff + nCv)
                si += 1
                done = si == nCv || c == cov
              }
              stats.coverCuts += nCv - si
            }
          }
        } else if (vsSize2 >= p.tauV && notRepeat(nCt))
          results += java.util.Arrays.copyOf(vs, vsSize2)
      }
    }

    // Restore cntU so siblings/parents see the state for V_S alone: the
    // same merge of C_T with v's slots as Step 1.
    k = vSlotOff(v)
    ti = 0
    while (ti < ctLen && k < kEnd) {
      val t = stack(ctOff + ti)
      k = seek(k, kEnd, t)
      if (k < kEnd && vSlotT(k) == t) {
        var i = gVOff(k)
        while (i < gVOff(k + 1)) { cntU(gVNbr(i)) -= 1; i += 1 }
        k += 1
      }
      ti += 1
    }
    inVS(v) = false
  }

  /** Steps 3–4 of a frequent node over its nCt stored cand_U lists, then its
    * valid candidate set: counts, in each ascending Γ(u, t), the v' > v
    * (slots above k, v's slot at t), scanning from the list's end down.
    * Records each entry's count in `candCnt`. Writes C_V* at stack[cvOff, …)
    * unsorted and returns its size; sets `cover` to the smallest v' of C_V*
    * adjacent to all of cand_U(t) at every survived t, or −1, and `covers`
    * to how many v' of C_V* are.
    */
  private def validCandidates(nCt: Int, cvOff: Int): Int = {
    var nCandV = 0
    var touch3 = 0L
    var ci = 0
    var i = 0
    while (i < nCt) {
      val k = candK(i)
      val n = candN(i)
      val cEnd = ci + n
      pass += 1
      while (ci < cEnd) {
        val lo = gUOff(candU(ci))
        val top = gUOff(candU(ci) + 1)
        var j = top - 1
        while (j >= lo && gUNbr(j) > k) {
          val s2 = gUNbr(j)
          val c =
            if (visitV(s2) != pass) { visitV(s2) = pass; cntVT(s2) = 1; 1 }
            else { cntVT(s2) += 1; cntVT(s2) }
          if (c == p.tauU) {
            val v2 = vOfSlot(s2)
            if (cntT(v2) == 0) { candV(nCandV) = v2; nCandV += 1 }
            cntT(v2) += 1
          }
          if (c == n) cntFull(vOfSlot(s2)) += 1 // n ≥ τ_U, so v2 is in candV
          j -= 1
        }
        touch3 += top - 1 - j
        candCnt(ci) = top - 1 - j
        ci += 1
      }
      i += 1
    }
    stats.step3Touches += touch3
    val st = stack
    var nCv = 0
    var cov = -1
    var nCov = 0
    var c = 0
    while (c < nCandV) {
      val v2 = candV(c)
      if (cntT(v2) >= p.lambda) {
        st(cvOff + nCv) = v2
        nCv += 1
        if (cntFull(v2) == nCt) {
          nCov += 1
          if (cov < 0 || v2 < cov) cov = v2
        }
      }
      cntT(v2) = 0
      cntFull(v2) = 0
      c += 1
    }
    cover = cov
    covers = nCov
    nCv
  }

  /** The lookahead test: whether H = V_S' ∪ C_V* is frequent, where C_V*
    * is stack[cvOff, cvOff + nCv) and the node has nCt stored cand_U lists
    * with Step 3's counts. A u of cand_U(t) stays in H's cand_U(t) when its
    * entries of Γ(u, t) above v hold every v' of C_V*; a u with fewer than
    * nCv such entries is dropped unread. A t is dropped once fewer than
    * τ_U of its u can still stay, and the test stops once fewer than λ
    * timestamps can. When H is frequent, candU/candN/candK are compacted in
    * place to H's lists and their count, at least λ, is returned; otherwise
    * the lists are spoiled and the result is below λ.
    */
  private def headTailFrequent(nCt: Int, nCv: Int, cvOff: Int): Int = {
    val st = stack
    var c = 0
    while (c < nCv) { inCv(st(cvOff + c)) = true; c += 1 }
    var touch = 0L
    var nH = 0 // H's survived timestamps so far
    var w = 0 // next write into candU
    var ci = 0
    var i = 0
    while (i < nCt && nH + nCt - i >= p.lambda) {
      val cEnd = ci + candN(i)
      val w0 = w
      while (ci < cEnd && w - w0 + cEnd - ci >= p.tauU) {
        val d = candCnt(ci)
        if (d >= nCv) {
          var need = nCv // C_V* entries not yet seen
          var slack = d - nCv // entries outside C_V* still allowed
          val top = gUOff(candU(ci) + 1)
          var j = top - 1
          while (need > 0 && slack >= 0) {
            if (inCv(vOfSlot(gUNbr(j)))) need -= 1 else slack -= 1
            j -= 1
          }
          touch += top - 1 - j
          if (need == 0) { candU(w) = candU(ci); w += 1 }
        }
        ci += 1
      }
      ci = cEnd
      if (w - w0 >= p.tauU) {
        candN(nH) = w - w0
        candK(nH) = candK(i)
        nH += 1
      } else w = w0
      i += 1
    }
    c = 0
    while (c < nCv) { inCv(st(cvOff + c)) = false; c += 1 }
    stats.step3Touches += touch
    nH
  }

  /** Theorem 4.1 at a would-be result V_S' whose largest id is v, over its
    * nCt stored cand_U lists: true unless some v' < v outside V_S' has τ_U
    * common m-neighbors with V_S' at λ of its survived timestamps. Steps
    * 3–4 run over the prefix v' < v (slots below v's) of each Γ(u, t), u in
    * the stored cand_U(t), stopping at the first v' to reach λ, which
    * becomes the `witness` that the dominance cut reads, or once the
    * largest count plus the timestamps left falls below λ; a v' in V_S' is
    * skipped when its count reaches τ_U, the only point where it could
    * matter. `candV` is free here, so it lists the v' whose `cntT` this
    * pass raised; it zeroes them before returning.
    */
  private def notRepeat(nCt: Int): Boolean = {
    stats.maxChecks += 1
    var touched = 0
    var touch3 = 0L
    var extended = false
    var best = 0 // the largest cntT this pass raised: no v' gains more than 1 per t
    var ci = 0
    var i = 0
    while (i < nCt && !extended && best + nCt - i >= p.lambda) {
      val k = candK(i)
      val cEnd = ci + candN(i)
      pass += 1
      while (ci < cEnd && !extended) {
        val lo = gUOff(candU(ci))
        val hi = gUOff(candU(ci) + 1)
        var j = lo
        while (j < hi && gUNbr(j) < k && !extended) {
          val s2 = gUNbr(j)
          val c =
            if (visitV(s2) != pass) { visitV(s2) = pass; cntVT(s2) = 1; 1 }
            else { cntVT(s2) += 1; cntVT(s2) }
          if (c == p.tauU) {
            val v2 = vOfSlot(s2)
            if (!inVS(v2)) {
              if (cntT(v2) == 0) { candV(touched) = v2; touched += 1 }
              val n = cntT(v2) + 1
              cntT(v2) = n
              if (n > best) best = n
              if (n >= p.lambda) { extended = true; witness = v2 }
            }
          }
          j += 1
        }
        touch3 += j - lo
        ci += 1
      }
      i += 1
    }
    var c = 0
    while (c < touched) { cntT(candV(c)) = 0; c += 1 }
    stats.step3Touches += touch3
    !extended
  }

  /** Whether w dominates the node whose survived timestamps are
    * stack[ctOff, ctOff + nCt): w has a slot at each such t and Γ(w, t)
    * holds all of the stored cand_U(t). Both lists ascend, so one merge per
    * t reads Γ(w, t) up to the first u of cand_U(t) that it lacks. Stops at
    * the first t where w falls short.
    */
  private def dominates(w: Int, ctOff: Int, nCt: Int): Boolean = {
    var touch = 0L
    var covered = true
    val kEnd = vSlotOff(w + 1)
    var k = vSlotOff(w)
    var ci = 0
    var i = 0
    while (i < nCt && covered) {
      val t = stack(ctOff + i)
      k = seek(k, kEnd, t)
      if (k < kEnd && vSlotT(k) == t) {
        val cEnd = ci + candN(i)
        val start = gVOff(k)
        val end = gVOff(k + 1)
        var j = start
        while (ci < cEnd && end - j >= cEnd - ci && gVNbr(j) <= candU(ci)) {
          if (gVNbr(j) == candU(ci)) ci += 1
          j += 1
        }
        touch += j - start
        covered = ci == cEnd
        k += 1
      } else covered = false
      i += 1
    }
    stats.step3Touches += touch
    covered
  }

  /** Full enumeration: [[runSeed]] over every root seed, fanned out over
    * k = min(`workers`, nV) engines (`workers` defaults to
    * [[VFree.defaultWorkers]]). The calling thread runs this engine and
    * k − 1 threads named `vfree-worker-i` each run a fresh one; all pull
    * seeds in ascending id order from one shared cursor, keep their groups
    * in a buffer of their own, and are joined before `run` returns. Their
    * `stats` are merged into this `stats`, so the counters are the sums of a
    * sequential run. The first failure of any worker (`TimeBudgetExceeded`,
    * `StackOverflowError`) stops the others at their next seed and is
    * rethrown as it was thrown. The buffers then go into one set, whose size
    * must equal their total: otherwise a group was emitted twice, and `run`
    * throws an `IllegalStateException` naming it.
    */
  def run(workers: Int = VFree.defaultWorkers): Set[Set[Long]] = {
    require(workers >= 1, s"workers must be positive: $workers")
    val next = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]()
    def work(engine: VFree, out: mutable.ArrayBuffer[Set[Long]]): Unit =
      try {
        var seed = next.getAndIncrement()
        while (seed < g.nV && failure.get == null) {
          out ++= engine.runSeed(seed)
          seed = next.getAndIncrement()
        }
      } catch { case e: Throwable => failure.compareAndSet(null, e) }
    val engines = this +: Vector.fill(math.min(workers, g.nV) - 1)(new VFree(g, p, deadline))
    val found = engines.map(_ => mutable.ArrayBuffer.empty[Set[Long]])
    val threads = (1 until engines.length).map(i => new Thread(() => work(engines(i), found(i)), s"vfree-worker-$i"))
    threads.foreach(_.start())
    work(this, found(0))
    threads.foreach(_.join())
    engines.tail.foreach(e => stats.merge(e.stats))
    if (failure.get != null) throw failure.get
    val groups = found.iterator.flatten.toSet
    if (groups.size != found.iterator.map(_.length).sum) {
      val seen = mutable.HashSet.empty[Set[Long]]
      throw new IllegalStateException(s"VFree emitted group ${found.iterator.flatten.find(!seen.add(_)).get} twice")
    }
    groups
  }

  /** Enumerates only the MFGs discovered in root branch `seed` (internal
    * id). Root branches are independent and their union over all seeds is
    * the complete result, so seeds can be processed in any order / on any
    * executor. Counting arrays return to their zero state after each seed,
    * so one VFree instance can serve many seeds sequentially. The seed's
    * whole search is one span of `stats.cmNanos`: every VFree node computes
    * candidates or checks maximality (Table 1's VFree-CM).
    */
  def runSeed(seed: Int): Vector[Set[Long]] = {
    results.clear() // keep per-seed memory flat
    witness = -1 // so no counter depends on the seeds this engine ran before
    val t0 = System.nanoTime()
    branch(seed, 0, 0, g.nT, g.nT)
    stats.cmNanos += System.nanoTime() - t0
    results.iterator.map(_.map(g.vLabels).toSet).toVector
  }
}

object VFree {
  /** Workers of [[VFree.run]] when the caller names none: half the cores,
    * at least one. A run ends when its last worker does. With a worker on
    * every core, a core taken by the JVM's GC or JIT threads or by another
    * tenant of the host stalls one worker, so run times follow that load.
    * Half the cores leaves room for it: on a shared 4-vCPU host the spread
    * of perfbench's `deep-d4` throughput from one run to the next was
    * about 6% of its median on 2 workers, 8% on 3 and 12–18% on 4.
    */
  def defaultWorkers: Int = math.max(1, Runtime.getRuntime.availableProcessors / 2)
}
