package repro.core

import repro.graph.TemporalBipartiteGraph

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Verification-Free approach (Algorithm 4).
  *
  * Timestamp-oriented search: for the branch extending V_S with v, iterate
  * only the inherited survived timestamps C_T and maintain the dynamic
  * counting structures
  *
  *  - `cntU(t·nU + u)` — m-neighbors of u inside V_S' at t, one flat array
  *    keyed like Γ(u, t) (incrementally inherited across the recursion: +1
  *    on entry for Γ(v,t), -1 on exit);
  *  - `cntVT(v')`   — m-neighbors of v' inside cand_U at the timestamp being
  *    processed (the paper's `cnt_V[t][v']`; `visitV` stamps each v' with
  *    the pass over t that last touched it, the paper's `visit_V`, so one
  *    |V|-sized array reused per t is equivalent);
  *  - `cntT(v')`    — survived timestamps of V_S' ∪ {v'}.
  *
  * The valid candidate set falls out of `cntT` with no explicit frequency
  * verification, and maximality falls out of the ascending-id processing
  * order (Theorem 4.1) with no result comparisons. V_S is ascending and v
  * is its largest id, so Step 3 counts only the v' > v: each ascending
  * Γ(u, t) is scanned from its end down to v, and no v' there is in V_S.
  * The lower ids v' < v matter only to Theorem 4.1's test at a would-be
  * result (V_S' frequent, C_V* = ∅, |V_S'| ≥ τ_V), so `notRepeat` counts
  * them there alone, stopping at the first v' that extends V_S'.
  *
  * A search node allocates nothing. cand_U and cand_V are shared arrays
  * that a node fills and consumes before its first recursive call. C_T' and
  * C_V* outlive that call, so each node keeps them as one segment of a
  * growable `Int` stack above its parent's; the child reads its C_T from
  * the parent's segment. V_S is an array indexed by depth.
  *
  * Memory per engine: nT·nU + O(nU + nV) `Int`s, plus at most
  * nT + depth·(nT + nV) stack entries; [[run]] with k workers holds k
  * engines. Depth: along a branch V_S is ascending and every subset
  * of a frequent V_S is frequent (Lemma 2.2), so at τ_V ≤ 2 every ascending
  * subset of a depth-d V_S that starts at the seed is a node of that seed:
  * depth d costs at least 2^(d−1) nodes (the subsets keeping V_S's last
  * τ_V − 1 vertices, 2^(d−τ_V), at larger τ_V). On a complete biclique the
  * bound is met exactly. A frame holds only scalars, so search time bounds
  * the depth long before the `-Xss64m` thread stack does. Worker threads
  * are created with the JVM's default stack size, so that `-Xss` (which the
  * tests and perfbench set to 64m) covers them as it covers the caller.
  *
  * The caller is responsible for graph filtering (GFCore) and the
  * ascending-structural-degree ID reorder ([[Enumerators.reorderByDegree]],
  * which maps V through `TemporalBipartiteGraph.relabelV`) — see
  * [[Enumerators.vFree]]. Root branches are independent (Theorem 4.1: each
  * seed's MFGs are globally maximal), so the one search entry is
  * [[runSeed]], which runs one seed on this engine's thread. [[run]] fans
  * the seeds out over worker threads in this JVM, each with its own engine
  * and the shared read-only graph, and checks that no group is emitted
  * twice; [[repro.spark.DistributedMfg]] fans them out over a Spark Dataset.
  *
  * Two guards absent from the paper's printed pseudocode are added on its
  * line 40 (|C_T'| ≥ λ and |V_S'| ≥ τ_V): without them root-level seeds that
  * are themselves infrequent or undersized would be reported (DESIGN.md §6);
  * brute-force cross-validation pins this down.
  */
final class VFree(g: TemporalBipartiteGraph, p: Params, deadline: Deadline) extends Serializable {
  val stats = new EnumStats

  private val nU = g.nU
  private val gUOff = g.gUOff; private val gUNbr = g.gUNbr
  private val gVOff = g.gVOff; private val gVNbr = g.gVNbr
  private val cntU = new Array[Int](g.nT * nU) // keyed as Γ(u, t); the builder bounds nT·(nU+nV)
  private val cntVT = new Array[Int](g.nV)
  private val cntT = new Array[Int](g.nV)
  private val inVS = new Array[Boolean](g.nV)
  private val visitV = new Array[Long](g.nV) // last timestamp pass that touched v'
  private var pass = 0L // a Long count cannot wrap in any run, so visitV is never reset
  // Filled and consumed by one node before its first recursive call.
  private val candU = new Array[Int](nU)
  private val candV = new Array[Int](g.nV)
  private val vs = new Array[Int](g.nV) // V_S by depth, ascending
  // Per-depth segments [C_T' | C_V*]; the bottom nT entries are the root's C_T.
  private var stack: Array[Int] = Array.range(0, g.nT)
  private val results = mutable.ArrayBuffer.empty[Array[Int]] // ascending internal ids

  /** One iteration of the `for v ∈ C_V` loop of VerifyFreeMFG: extends
    * V_S = vs[0, depth) with `v`, using the inherited survived timestamps
    * stack[ctOff, ctOff + ctLen); this node's segment starts at `base`.
    */
  private def branch(v: Int, depth: Int, ctOff: Int, ctLen: Int, base: Int): Unit = {
    deadline.check(stats.nodes)
    stats.nodes += 1
    val t0 = System.nanoTime()
    val vsSize2 = depth + 1
    if (vsSize2 > stats.maxDepth) stats.maxDepth = vsSize2
    inVS(v) = true
    vs(depth) = v
    if (base + ctLen + g.nV > stack.length)
      stack = java.util.Arrays.copyOf(stack, math.max(base + ctLen + g.nV, 2 * stack.length))
    val st = stack // a child may replace `stack` when it grows; re-read after recursing

    var nCt = 0
    var nCandV = 0
    var touch1 = 0L
    var touch3 = 0L
    var ti = 0
    while (ti < ctLen) {
      val t = st(ctOff + ti)
      val row = g.keyU(0, t) // Γ(u, t) and cntU are keyed row + u
      // Step 1: ascertain from U — common m-neighbors of V_S' at t.
      var nCandU = 0
      var i = gVOff(g.keyV(v, t))
      val end = gVOff(g.keyV(v, t) + 1)
      touch1 += end - i
      while (i < end) {
        val u = gVNbr(i)
        val c = cntU(row + u) + 1
        cntU(row + u) = c
        if (c == vsSize2) { candU(nCandU) = u; nCandU += 1 }
        i += 1
      }
      // Step 2: termination check — survived timestamp?
      if (nCandU >= p.tauU) {
        st(base + nCt) = t
        nCt += 1
        // Step 3: reverse-ascertain from V over the suffix v' > v of each
        // ascending Γ(u, t); Step 4: survived count update.
        pass += 1
        var ci = 0
        while (ci < nCandU) {
          val lo = gUOff(row + candU(ci))
          val hi = gUOff(row + candU(ci) + 1)
          var j = hi - 1
          while (j >= lo && gUNbr(j) > v) {
            val v2 = gUNbr(j)
            val c =
              if (visitV(v2) != pass) { visitV(v2) = pass; cntVT(v2) = 1; 1 }
              else { cntVT(v2) += 1; cntVT(v2) }
            if (c == p.tauU) {
              if (cntT(v2) == 0) { candV(nCandV) = v2; nCandV += 1 }
              cntT(v2) += 1
            }
            j -= 1
          }
          touch3 += hi - 1 - j
          ci += 1
        }
      }
      ti += 1
    }

    // Valid candidate set from cntT.
    val cvOff = base + nCt
    var nCv = 0
    var k = 0
    while (k < nCandV) {
      val v2 = candV(k)
      if (cntT(v2) >= p.lambda) { st(cvOff + nCv) = v2; nCv += 1 }
      cntT(v2) = 0
      k += 1
    }
    val frequent = nCt >= p.lambda
    stats.step1Touches += touch1
    stats.step3Touches += touch3
    val emit = frequent && nCv == 0 && vsSize2 >= p.tauV && notRepeat(v, vsSize2, base, nCt)
    stats.cmNanos += System.nanoTime() - t0

    if (frequent && vsSize2 + nCv >= p.tauV && nCv > 0) {
      java.util.Arrays.sort(st, cvOff, cvOff + nCv) // ascending processing order
      var si = 0
      while (si < nCv) { branch(stack(cvOff + si), vsSize2, base, nCt, cvOff + nCv); si += 1 }
    }
    if (emit) results += java.util.Arrays.copyOf(vs, vsSize2)

    // Restore cntU so siblings/parents see the state for V_S alone.
    val t1 = System.nanoTime()
    var ri = 0
    while (ri < ctLen) {
      val t = stack(ctOff + ri)
      val row = g.keyU(0, t)
      var i = gVOff(g.keyV(v, t))
      val end = gVOff(g.keyV(v, t) + 1)
      while (i < end) { cntU(row + gVNbr(i)) -= 1; i += 1 }
      ri += 1
    }
    stats.cmNanos += System.nanoTime() - t1
    inVS(v) = false
  }

  /** Theorem 4.1 at a would-be result V_S' = vs[0, size) whose largest id
    * is `v`: true unless some v' < v outside V_S has τ_U common m-neighbors
    * with V_S' at λ of its survived timestamps stack[ctOff, ctOff + nCt).
    * Steps 3–4 over the prefix v' < v of each Γ(u, t), stopping at the
    * first v' to reach λ. `cntU` still holds V_S' and `candV` is free, so
    * cand_U is read off `cntU` and `candV` lists the v' whose `cntT` this
    * pass raised; it zeroes them before returning.
    */
  private def notRepeat(v: Int, size: Int, ctOff: Int, nCt: Int): Boolean = {
    var touched = 0
    var touch3 = 0L
    var extended = false
    var ti = 0
    while (ti < nCt && !extended) {
      val t = stack(ctOff + ti)
      val row = g.keyU(0, t)
      pass += 1
      var i = gVOff(g.keyV(v, t))
      val end = gVOff(g.keyV(v, t) + 1)
      while (i < end && !extended) {
        val u = gVNbr(i)
        if (cntU(row + u) == size) { // u ∈ cand_U
          val lo = gUOff(row + u)
          val hi = gUOff(row + u + 1)
          var j = lo
          while (j < hi && gUNbr(j) < v && !extended) {
            val v2 = gUNbr(j)
            if (!inVS(v2)) {
              val c =
                if (visitV(v2) != pass) { visitV(v2) = pass; cntVT(v2) = 1; 1 }
                else { cntVT(v2) += 1; cntVT(v2) }
              if (c == p.tauU) {
                if (cntT(v2) == 0) { candV(touched) = v2; touched += 1 }
                cntT(v2) += 1
                extended = cntT(v2) >= p.lambda
              }
            }
            j += 1
          }
          touch3 += j - lo
        }
        i += 1
      }
      ti += 1
    }
    var k = 0
    while (k < touched) { cntT(candV(k)) = 0; k += 1 }
    stats.step3Touches += touch3
    !extended
  }

  /** Full enumeration: [[runSeed]] over every root seed, fanned out over
    * k = min(`workers`, nV) engines (`workers` defaults to
    * [[VFree.defaultWorkers]]). The calling thread runs this engine and
    * k − 1 threads named `vfree-worker-i` each run a fresh one; all pull
    * seeds in ascending id order from one shared cursor and are joined
    * before `run` returns. Their `stats` are merged into this `stats`, so
    * the counters are the sums of a sequential run. The first failure of any
    * worker (`TimeBudgetExceeded`, `IllegalStateException` for a group
    * emitted twice, `StackOverflowError`) stops the others at their next
    * seed and is rethrown as it was thrown.
    */
  def run(workers: Int = VFree.defaultWorkers): Set[Set[Long]] = {
    require(workers >= 1, s"workers must be positive: $workers")
    val found = ConcurrentHashMap.newKeySet[Set[Long]]()
    val next = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]()
    def work(engine: VFree): Unit =
      try {
        var seed = next.getAndIncrement()
        while (seed < g.nV && failure.get == null) {
          for (s <- engine.runSeed(seed))
            if (!found.add(s)) throw new IllegalStateException(s"VFree emitted group $s twice")
          seed = next.getAndIncrement()
        }
      } catch { case e: Throwable => failure.compareAndSet(null, e) }
    val engines = Vector.fill(math.min(workers, g.nV) - 1)(new VFree(g, p, deadline))
    val threads = engines.zipWithIndex.map { case (e, i) => new Thread(() => work(e), s"vfree-worker-${i + 1}") }
    threads.foreach(_.start())
    work(this)
    threads.foreach(_.join())
    engines.foreach(e => stats.merge(e.stats))
    if (failure.get != null) throw failure.get
    found.asScala.toSet
  }

  /** Enumerates only the MFGs discovered in root branch `seed` (internal
    * id). Root branches are independent and their union over all seeds is
    * the complete result, so seeds can be processed in any order / on any
    * executor. Counting arrays return to their zero state after each seed,
    * so one VFree instance can serve many seeds sequentially.
    */
  def runSeed(seed: Int): Vector[Set[Long]] = {
    results.clear() // keep per-seed memory flat
    branch(seed, 0, 0, g.nT, g.nT)
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
