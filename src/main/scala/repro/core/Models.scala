package repro.core

import repro.graph.{SortedOps, TemporalBipartiteGraph}

import scala.collection.mutable

/** The two comparator models of the Table 3 / Exp-8 case study.
  *
  *  - MSG (maximal static group): the maximal unilateral groups contained in
  *    a (τ_U, τ_V)-biclique of the *static* graph — i.e. the MFG model with
  *    every timestamp collapsed and λ = 1, so it reuses the VFree engine.
  *  - MFB (maximal frequent (τ_U, τ_V)-biclique): a concrete biclique
  *    (U_S, V_S) — both sides fixed — appearing in ≥ λ snapshots, maximal
  *    componentwise. Enumerated by a V-side DFS carrying the per-timestamp
  *    common-m-neighbor sets, with maximal-frequent-itemset mining over
  *    those sets for the U side and a final dominance filter. Intended for
  *    case-study scale.
  */
object Models {

  /** Maximal static groups (MSG) in original-label space. */
  def msg(g: TemporalBipartiteGraph, p: Params, budgetMs: Long = 0): Option[Set[Set[Long]]] = {
    val outcome = Enumerators.vFree(g.collapseStatic, p.copy(lambda = 1), budgetMs = budgetMs)
    outcome.results
  }

  /** A frequent biclique: both vertex sets in original-label space. */
  final case class Biclique(us: Set[Long], vs: Set[Long])

  /** Maximal frequent (τ_U, τ_V)-bicliques (MFB) with frequency ≥ λ. */
  def mfb(g: TemporalBipartiteGraph, p: Params, budgetMs: Long = 0): Option[Vector[Biclique]] = {
    try Some(mfbInternal(g, p, new Deadline(budgetMs)))
    catch { case _: TimeBudgetExceeded => None }
  }

  private def mfbInternal(g: TemporalBipartiteGraph, p: Params, deadline: Deadline): Vector[Biclique] = {
    val collected = mutable.LinkedHashSet.empty[(Vector[Int], Vector[Int])] // (us, vs) ascending ids
    var calls = 0L // calls of both recursions, which the deadline samples
    def checkDeadline(): Unit = { deadline.check(calls); calls += 1 }

    /** Maximal itemsets over `transactions` with support ≥ λ and size ≥ τ_U.
      * Itemset maximality = no single frequent item extension (antimonotone).
      */
    def maximalUSets(transactions: Array[Array[Int]]): Vector[Vector[Int]] = {
      if (transactions.length < p.lambda) return Vector.empty
      val items = transactions.flatten.distinct.sorted
      val tids: Map[Int, mutable.BitSet] = items.map { u =>
        val b = mutable.BitSet.empty
        transactions.zipWithIndex.foreach { case (tr, i) => if (java.util.Arrays.binarySearch(tr, u) >= 0) b += i }
        u -> b
      }.toMap
      val out = mutable.LinkedHashSet.empty[Vector[Int]]

      def rec(s: Vector[Int], tid: mutable.BitSet, next: Int): Unit = {
        checkDeadline()
        var extendedAny = false
        items.foreach { u =>
          if (!s.contains(u)) {
            val t2 = tid & tids(u)
            if (t2.size >= p.lambda) extendedAny = true
          }
        }
        if (!extendedAny && s.size >= p.tauU) out += s
        var i = 0
        while (i < items.length) {
          val u = items(i)
          if (u > next) {
            val t2 = tid & tids(u)
            if (t2.size >= p.lambda) rec(s :+ u, t2, u)
          }
          i += 1
        }
      }

      val full = mutable.BitSet(transactions.indices: _*)
      rec(Vector.empty, full, -1)
      out.toVector
    }

    // cts(t): the common m-neighbours of V_S at t, as ascending U-slot ids of t
    def rec(vs: Vector[Int], cts: Array[Array[Int]], next: Int): Unit = {
      checkDeadline()
      val live = cts.count(_.length >= p.tauU)
      if (live < p.lambda) return
      if (vs.size >= p.tauV) {
        val transactions = cts.filter(_.length >= p.tauU).map(_.map(g.uOfSlot))
        maximalUSets(transactions).foreach(us => collected += ((us, vs)))
      }
      var v = next + 1
      while (v < g.nV) {
        val cts2 = Array.tabulate(g.nT) { t =>
          val k = g.vSlot(v, t)
          if (k < 0) Array.emptyIntArray else SortedOps.intersect(cts(t), g.gVNbr, g.gVOff(k), g.gVOff(k + 1))
        }
        rec(vs :+ v, cts2, v)
        v += 1
      }
    }

    rec(Vector.empty, Array.tabulate(g.nT)(t => Array.range(0, g.nU).map(g.uSlot(_, t)).filter(_ >= 0)), -1)

    // componentwise dominance filter for pair maximality
    val all = collected.toVector
    val maximal = all.filter { case (us, vs) =>
      !all.exists { case (us2, vs2) =>
        (us2, vs2) != (us, vs) &&
          SortedOps.subsetOf(us.toArray, us2.toArray) && SortedOps.subsetOf(vs.toArray, vs2.toArray)
      }
    }
    maximal.map { case (us, vs) => Biclique(us.map(g.uLabels).toSet, vs.map(g.vLabels).toSet) }
  }
}
