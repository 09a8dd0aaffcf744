package repro.core

import repro.graph.{GraphFields, TemporalBipartiteGraph}

import scala.collection.mutable

/** Exhaustive ground-truth enumerator for tests.
  *
  * Walks the subset lattice of V in lexicographic DFS order, pruning by the
  * antimonotone frequency property (Lemma 2.2), collecting every frequent
  * set; an MFG is then a frequent set of size ≥ τ_V with no frequent proper
  * superset. The frequency definition is recomputed from scratch per set
  * (independent of the optimized verification code paths), so this is a
  * genuine oracle for all enumerators. Exponential — only for small graphs.
  */
object BruteForce {

  /** All frequent sets (any size ≥ 1), in internal-id space. */
  def allFrequentSets(g: TemporalBipartiteGraph, p: Params): Vector[Vector[Int]] = {
    val out = Vector.newBuilder[Vector[Int]]
    val gammaV = GraphFields(g).gammaV

    def freq(vs: Vector[Int]): Int = {
      var count = 0
      var t = 0
      while (t < g.nT) {
        // common m-neighbor count of vs at t, recomputed naively via sets
        val common = vs.foldLeft(Set.range(0, g.nU)) { (acc, v) => acc.intersect(gammaV(t)(v).toSet) }
        if (common.size >= p.tauU) count += 1
        t += 1
      }
      count
    }

    def rec(vs: Vector[Int], next: Int): Unit = {
      var v = next
      while (v < g.nV) {
        val vs2 = vs :+ v
        if (freq(vs2) >= p.lambda) {
          out += vs2
          rec(vs2, v + 1)
        }
        v += 1
      }
    }

    rec(Vector.empty, 0)
    out.result()
  }

  /** All MFGs in internal-id space, as a set of sorted vertex vectors. */
  def mfgs(g: TemporalBipartiteGraph, p: Params): Set[Vector[Int]] = {
    val frequent = allFrequentSets(g, p)
    val asSets = frequent.map(_.toSet)
    frequent.iterator.zipWithIndex
      .filter { case (vs, i) =>
        vs.size >= p.tauV && {
          val s = asSets(i)
          !asSets.exists(o => o.size > s.size && s.subsetOf(o))
        }
      }
      .map(_._1)
      .toSet
  }

  /** All MFGs in original-label space. */
  def mfgLabels(g: TemporalBipartiteGraph, p: Params): Set[Set[Long]] =
    mfgs(g, p).map(_.map(g.vLabels).toSet)

  /** Frequency of a given labelled vertex set (test helper). */
  def frequencyOf(g: TemporalBipartiteGraph, labels: Set[Long], tauU: Int): Int = {
    val byLabel = g.vLabels.zipWithIndex.toMap
    val vs = labels.map(byLabel)
    var count = 0
    val all = mutable.BitSet(0 until g.nU: _*)
    val gammaV = GraphFields(g).gammaV
    var t = 0
    while (t < g.nT) {
      val common = vs.foldLeft(all.toSet) { (acc, v) => acc.intersect(gammaV(t)(v).toSet) }
      if (common.size >= tauU) count += 1
      t += 1
    }
    count
  }
}
