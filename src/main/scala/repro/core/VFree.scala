package repro.core

import repro.graph.TemporalBipartiteGraph

import scala.collection.mutable

/** Verification-Free approach (Algorithm 4).
  *
  * Timestamp-oriented search: for the branch extending V_S with v, iterate
  * only the inherited survived timestamps C_T and maintain the dynamic
  * counting structures
  *
  *  - `cntU(t)(u)`  — m-neighbors of u inside V_S' at t (incrementally
  *    inherited across the recursion: +1 on entry for Γ(v,t), -1 on exit);
  *  - `cntVT(v')`   — m-neighbors of v' inside cand_U at the timestamp being
  *    processed (the paper's `cnt_V[t][v']`; it is reset per timestamp via
  *    `visit_V`, so one |V|-sized array reused per t is equivalent);
  *  - `cntT(v')`    — survived timestamps of V_S' ∪ {v'}.
  *
  * The valid candidate set falls out of `cntT` with no explicit frequency
  * verification, and maximality falls out of the ascending-id processing
  * order via the `notRepeat` flag (Theorem 4.1) with no result comparisons.
  *
  * The caller is responsible for graph filtering (GFCore) and the
  * ascending-structural-degree ID reorder (`TemporalBipartiteGraph.relabelV`)
  * — see [[Enumerators.vFree]]. Root branches are independent, so the one
  * search entry is [[runSeed]]: [[run]] fans out over every seed in this JVM
  * (checking that no group is emitted twice), [[repro.spark.DistributedMfg]]
  * over a Spark Dataset.
  *
  * Two guards absent from the paper's printed pseudocode are added on its
  * line 40 (|C_T'| ≥ λ and |V_S'| ≥ τ_V): without them root-level seeds that
  * are themselves infrequent or undersized would be reported (DESIGN.md §6);
  * brute-force cross-validation pins this down.
  */
final class VFree(g: TemporalBipartiteGraph, p: Params, deadline: Deadline) extends Serializable {
  val stats = new EnumStats

  private val cntU = Array.ofDim[Int](g.nT, g.nU)
  private val cntVT = new Array[Int](g.nV)
  private val cntT = new Array[Int](g.nV)
  private val inVS = new Array[Boolean](g.nV)
  private val visited = new Array[Boolean](g.nV)
  private val results = mutable.ArrayBuffer.empty[Array[Int]] // ascending internal ids

  private val allTs: Array[Int] = Array.range(0, g.nT)

  /** One iteration of the `for v ∈ C_V` loop of VerifyFreeMFG: extends the
    * current V_S (held in `vsList`, size `vsSize`) with `v`, using inherited
    * survived timestamps `ct`.
    */
  private def branch(v: Int, vsList: List[Int], vsSize: Int, ct: Array[Int]): Unit = {
    deadline.check()
    stats.nodes += 1
    val t0 = System.nanoTime()
    val vsSize2 = vsSize + 1
    inVS(v) = true

    val ctNew = mutable.ArrayBuffer.empty[Int]
    val candV = mutable.ArrayBuffer.empty[Int]
    val candU = mutable.ArrayBuffer.empty[Int]
    val visitList = mutable.ArrayBuffer.empty[Int]

    var ti = 0
    while (ti < ct.length) {
      val t = ct(ti)
      // Step 1: ascertain from U — common m-neighbors of V_S' at t.
      candU.clear()
      val gv = g.gammaV(t)(v)
      var i = 0
      while (i < gv.length) {
        val u = gv(i)
        cntU(t)(u) += 1
        if (cntU(t)(u) == vsSize2) candU += u
        i += 1
      }
      // Step 2: termination check — survived timestamp?
      if (candU.length >= p.tauU) {
        ctNew += t
        // Step 3: reverse-ascertain from V; Step 4: survived count update.
        visitList.clear()
        var ci = 0
        while (ci < candU.length) {
          val u2 = candU(ci)
          val gu = g.gammaU(t)(u2)
          var j = 0
          while (j < gu.length) {
            val v2 = gu(j)
            if (!inVS(v2)) {
              val c =
                if (!visited(v2)) { visited(v2) = true; visitList += v2; cntVT(v2) = 1; 1 }
                else { cntVT(v2) += 1; cntVT(v2) }
              if (c == p.tauU) {
                if (cntT(v2) == 0) candV += v2
                cntT(v2) += 1
              }
            }
            j += 1
          }
          ci += 1
        }
        var vi = 0
        while (vi < visitList.length) { visited(visitList(vi)) = false; vi += 1 }
      }
      ti += 1
    }

    // Valid candidate set from cntT; notRepeat encodes implicit maximality.
    var notRepeat = true
    val cvStar = mutable.ArrayBuffer.empty[Int]
    var k = 0
    while (k < candV.length) {
      val v2 = candV(k)
      if (cntT(v2) >= p.lambda) {
        if (v2 < v) notRepeat = false else cvStar += v2
      }
      cntT(v2) = 0
      k += 1
    }
    val frequent = ctNew.length >= p.lambda
    stats.cmNanos += System.nanoTime() - t0

    if (frequent && vsSize2 + cvStar.length >= p.tauV && cvStar.nonEmpty) {
      val sorted = cvStar.toArray
      java.util.Arrays.sort(sorted) // ensure ascending processing order
      val ctArr = ctNew.toArray
      var si = 0
      while (si < sorted.length) { branch(sorted(si), v :: vsList, vsSize2, ctArr); si += 1 }
    }
    if (frequent && cvStar.isEmpty && notRepeat && vsSize2 >= p.tauV) {
      val r = (v :: vsList).toArray
      java.util.Arrays.sort(r)
      results += r
    }

    // Restore cntU so siblings/parents see the state for V_S alone.
    val t1 = System.nanoTime()
    var ri = 0
    while (ri < ct.length) {
      val t = ct(ri)
      val gv = g.gammaV(t)(v)
      var i = 0
      while (i < gv.length) { cntU(t)(gv(i)) -= 1; i += 1 }
      ri += 1
    }
    stats.cmNanos += System.nanoTime() - t1
    inVS(v) = false
  }

  /** Full enumeration: [[runSeed]] over every root seed in ascending id
    * order. Throws `IllegalStateException` if a group is emitted twice.
    */
  def run(): Set[Set[Long]] = {
    val found = mutable.HashSet.empty[Set[Long]]
    for (seed <- 0 until g.nV; s <- runSeed(seed))
      if (!found.add(s)) throw new IllegalStateException(s"VFree emitted group $s twice")
    found.toSet
  }

  /** Enumerates only the MFGs discovered in root branch `seed` (internal
    * id). Root branches are independent and their union over all seeds is
    * the complete result, so seeds can be processed in any order / on any
    * executor. Counting arrays return to their zero state after each seed,
    * so one VFree instance can serve many seeds sequentially.
    */
  def runSeed(seed: Int): Vector[Set[Long]] = {
    results.clear() // keep per-seed memory flat
    branch(seed, Nil, 0, allTs)
    results.iterator.map(_.map(g.vLabels).toSet).toVector
  }
}
