package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.graph.{GraphFields, SortedOps, StaticIndex}
import repro.graph.GraphEdges._

class FrequencySpec extends AnyFunSuite {

  private def naiveFrequency(g: repro.graph.TemporalBipartiteGraph, vs: Array[Int], tauU: Int): Int =
    g.supportTimestamps(vs, tauU).length

  test("NaiveFreq: tiny graph support timestamps") {
    val g = TestGraphs.tiny
    // {v0,v1,v2}: t0,t1 complete; t2 only v0,v1 present
    assert(g.supportTimestamps(Array(0, 1, 2), 2).toSeq == Seq(0, 1))
    assert(g.supportTimestamps(Array(0, 1), 2).toSeq == Seq(0, 1, 2))
  }

  test("NaiveFreq: isFrequent early-exit agrees with full count") {
    val g = TestGraphs.tiny
    assert(Frequency.NaiveFreq.isFrequent(g, Array(0, 1), 2, 3))
    assert(!Frequency.NaiveFreq.isFrequent(g, Array(0, 1, 2), 2, 3))
    assert(Frequency.NaiveFreq.isFrequent(g, Array(0, 1, 2), 2, 2))
  }

  test("NaiveFreq: empty set is supported wherever U side is large enough") {
    val g = TestGraphs.tiny
    // common m-neighbors of ∅ = all of U
    assert(g.commonMNeighbors(Array.empty, 0).length == g.nU)
  }

  test("CheckFre matches the paper's Example 3.1 structure") {
    val g = TestGraphs.tiny
    val cf = new Frequency.CheckFre(StaticIndex(g))
    val member = Array(true, true, false)
    val vAdj = GraphFields(g).vAdj.map(_.toArray)
    val us = SortedOps.intersect(vAdj(0), vAdj(1), 0, vAdj(1).length)
    assert(cf.frequent(us, us.length, member, 2, 2, 3))     // {v0,v1} frequent at λ=3
    assert(!cf.frequent(us, us.length, member, 2, 3, 3))    // τ_U=3 kills t=2
  }

  for {
    seed <- 0 until 25
    tauU <- Seq(1, 2, 3)
  } {
    test(s"CheckFre ≡ NaiveFreq on random graphs (seed $seed, tauU=$tauU)") {
      val g = TestGraphs.random(6, 7, 5, 0.35, seed)
      val vAdj = GraphFields(g).vAdj.map(_.toArray)
      val cf = new Frequency.CheckFre(StaticIndex(g))
      val rng = new scala.util.Random(seed * 31 + 1)
      for (_ <- 0 until 8) {
        val size = 1 + rng.nextInt(3)
        val vs = rng.shuffle((0 until g.nV).toList).take(size).toArray.sorted
        val member = Array.tabulate(g.nV)(vs.contains)
        val us = vs.map(vAdj).reduce((a, b) => SortedOps.intersect(a, b, 0, b.length))
        for (lambda <- 1 to 4) {
          val expected = naiveFrequency(g, vs, tauU) >= lambda
          val got = cf.frequent(us, us.length, member, vs.length, tauU, lambda)
          assert(got == expected, s"vs=${vs.toSeq} tauU=$tauU lambda=$lambda")
        }
      }
    }
  }

  test("TBits: T(v) matches the m-degree definition") {
    val g = TestGraphs.tiny
    val tb = new Frequency.TBits(g, 2)
    // v0 has δ ≥ 2 at t0 (3 neighbors), t1 (3), t2 (2)
    def tset(v: Int): Set[Int] =
      (0 until g.nT).filter(t => (tb.bits(v)(t >>> 6) & (1L << (t & 63))) != 0).toSet
    assert(tset(0) == Set(0, 1, 2))
    assert(tset(2) == Set(0, 1)) // v2 absent at t=2
  }

  test("TBits: full bitset covers exactly nT timestamps") {
    val g = TestGraphs.random(4, 5, 7, 0.5, 3)
    val tb = new Frequency.TBits(g, 1)
    assert(tb.full.map(java.lang.Long.bitCount).sum == g.nT)
  }

  test("TBits: andCountAtLeast early exit semantics") {
    val g = TestGraphs.tiny
    val tb = new Frequency.TBits(g, 2)
    assert(tb.andCountAtLeast(tb.full, tb.bits(0), 3))
    assert(!tb.andCountAtLeast(tb.full, tb.bits(2), 3))
    assert(tb.andCountAtLeast(tb.full, tb.bits(2), 2))
  }

  for (seed <- 0 until 15) {
    test(s"Lemma 3.2 is a safe filter: never prunes a frequent extension (seed $seed)") {
      val g = TestGraphs.random(6, 6, 5, 0.4, seed + 500)
      val tauU = 2; val lambda = 2
      val tb = new Frequency.TBits(g, tauU)
      val rng = new scala.util.Random(seed)
      for (_ <- 0 until 10) {
        val vs = rng.shuffle((0 until g.nV).toList).take(1 + rng.nextInt(2)).toArray.sorted
        val tsBits = vs.map(tb.bits).foldLeft(tb.full)(tb.and)
        for (cand <- 0 until g.nV if !vs.contains(cand)) {
          val pruned = !tb.andCountAtLeast(tsBits, tb.bits(cand), lambda)
          val frequent = naiveFrequency(g, (vs :+ cand).sorted, tauU) >= lambda
          // the rule may keep an infrequent candidate, but must never prune a frequent one
          assert(!(pruned && frequent), s"pruned frequent extension $cand of ${vs.toSeq}")
        }
      }
    }
  }
}
