package repro.core

import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.graph.{GraphGen, TemporalBipartiteGraph}

import scala.jdk.CollectionConverters._

/** VFree-specific invariants beyond the brute-force cross-validation. */
class VFreeSpec extends AnyFunSuite {

  test("runSeed over all seeds ≡ run (root branches are independent)") {
    for (seed <- 0 until 10) {
      val g = TestGraphs.random(7, 7, 4, 0.5, seed + 70)
      val p = Params(2, 2, 2)
      val full = new VFree(g, p, Deadline.unlimited).run()
      val engine = new VFree(g, p, Deadline.unlimited)
      val perSeed = (0 until g.nV).flatMap(engine.runSeed).toSet
      assert(perSeed == full, s"seed $seed")
    }
  }

  test("runSeed results are disjoint across seeds (no duplicate discovery)") {
    for (seed <- 0 until 10) {
      val g = TestGraphs.random(7, 7, 4, 0.55, seed + 90)
      val engine = new VFree(g, Params(2, 1, 2), Deadline.unlimited)
      val bySeeds = (0 until g.nV).map(engine.runSeed)
      val total = bySeeds.map(_.size).sum
      assert(bySeeds.flatten.toSet.size == total, s"seed $seed found duplicates")
    }
  }

  test("property: runSeed over every seed of the reordered core emits each MFG once") {
    GraphGen.check(forAll(GraphGen.graphs, GraphGen.params(4)) { (g, p) =>
      val rg = Enumerators.reorderByDegree(GFCore(g, p))
      val engine = new VFree(rg, p, Deadline.unlimited)
      val emitted = (0 until rg.nV).flatMap(engine.runSeed)
      val want = BruteForce.mfgLabels(g, p)
      ((emitted.size == emitted.distinct.size) :| s"$p: duplicates in $emitted") &&
        ((emitted.toSet == want) :| s"$p: got ${emitted.toSet}\nwant $want")
    }, tests = 2000)
  }

  test("counting arrays return to zero state between seeds") {
    val g = TestGraphs.random(6, 6, 4, 0.5, 33)
    val engine = new VFree(g, Params(2, 2, 2), Deadline.unlimited)
    val once = (0 until g.nV).flatMap(engine.runSeed).toSet
    val twice = (0 until g.nV).flatMap(engine.runSeed).toSet // same instance, rerun
    assert(once == twice)
  }

  private def counters(s: EnumStats) =
    (s.nodes, s.step1Touches, s.step3Touches, s.maxDepth, s.maxChecks, s.witnessHits, s.dominatedCuts)

  test("results do not depend on seed processing order") {
    val g = TestGraphs.random(7, 7, 4, 0.5, 44)
    val p = Params(2, 1, 2)
    def inOrder(seeds: Seq[Int]) = {
      val e = new VFree(g, p, Deadline.unlimited)
      (seeds.flatMap(e.runSeed).toSet, counters(e.stats))
    }
    val (fwd, fwdCounters) = inOrder(0 until g.nV)
    val (bwd, bwdCounters) = inOrder(g.nV - 1 to 0 by -1)
    assert(fwd == bwd)
    assert(fwdCounters == bwdCounters)
  }

  test("every reported MFG is frequent and size-feasible") {
    for (seed <- 0 until 10) {
      val g = TestGraphs.random(7, 8, 5, 0.45, seed + 110)
      val p = Params(2, 2, 2)
      val res = new VFree(g, p, Deadline.unlimited).run()
      val byLabel = g.vLabels.zipWithIndex.toMap
      for (s <- res) {
        assert(s.size >= p.tauV)
        val vs = s.map(byLabel).toArray.sorted
        assert(Frequency.NaiveFreq.isFrequent(g, vs, p.tauU, p.lambda), s"infrequent result $s")
      }
    }
  }

  private def completeBiclique(n: Int) =
    TestGraphs.of((for (u <- 0 until 3; v <- 0 until n; t <- 0 until 3) yield (u, v, t)): _*)

  // Every subset of V is frequent, so without the dominance cut the search
  // tree is the full subset lattice, 2^n − 1 nodes. Every v' covers every
  // cand_U, so once a would-be result sets the witness w, each later node of
  // the seed with w < v and w ∉ V_S' is cut. The first branch still goes
  // all the way down, so the depth stays n.
  for ((n, nodes) <- Seq(4 -> 15L, 10 -> 259L, 16 -> 1151L, 40 -> 19839L))
    test(s"complete biclique K(3, $n) at 3 timestamps, (3, 2, 3): $nodes nodes, depth $n") {
      val engine = new VFree(completeBiclique(n), Params(3, 2, 3), Deadline.unlimited)
      assert(engine.run() == Set((0 until n).map(_.toLong).toSet))
      assert(engine.stats.nodes == nodes)
      assert(engine.stats.maxDepth == n)
    }

  test("search tree pinned: random(30, 30, 8, 0.5, 4242), GFCore + reorder at (2, 2, 2)") {
    val p = Params(2, 2, 2)
    val g = GFCore.degreeOrdered(TestGraphs.random(30, 30, 8, 0.5, 4242), p)
    val engine = new VFree(g, p, Deadline.unlimited)
    assert(engine.run().size == 27007)
    assert(counters(engine.stats) == (238347L, 16293185L, 14469491L, 11, 127174L, 28561L, 23768L))
  }

  test("property: run on k ∈ {1, 2, 3, 8} workers ≡ brute force, with the k = 1 counters") {
    GraphGen.check(forAll(GraphGen.graphs, GraphGen.params(4)) { (g, p) =>
      val rg = GFCore.degreeOrdered(g, p)
      val want = BruteForce.mfgLabels(g, p)
      val runs = Seq(1, 2, 3, 8).map { k =>
        val engine = new VFree(rg, p, Deadline.unlimited)
        (k, engine.run(k), counters(engine.stats))
      }
      runs.map { case (k, res, c) =>
        ((res == want) :| s"$p, k = $k: got $res\nwant $want") &&
          ((c == runs.head._3) :| s"$p, k = $k: counters $c, k = 1 ${runs.head._3}")
      }.reduce(_ && _)
    }, tests = 500)
  }

  test("defaultWorkers is half the cores, at least one") {
    assert(VFree.defaultWorkers == math.max(1, Runtime.getRuntime.availableProcessors / 2))
  }

  private def workersAlive = Thread.getAllStackTraces.keySet.asScala.exists(t =>
    t.getName.startsWith("vfree-worker-") && t.isAlive)

  test("run rethrows a duplicate group unwrapped and leaves no worker alive") {
    // Two disjoint copies of K(3, 14) whose V sides carry the same labels:
    // each copy is one MFG, so the two seeds that find them emit one label
    // set twice. Which worker sees the second is a race, so run it 5 times.
    val n = 14
    val es = for (c <- 0 to 1; u <- 0 until 3; v <- 0 until n; t <- 0 until 3) yield (3 * c + u, n * c + v, t)
    val g = TemporalBipartiteGraph.fromInternal(es.map(_._1).toArray, es.map(_._2).toArray, es.map(_._3).toArray,
      Array.tabulate(6)(_.toLong), Array.tabulate(2 * n)(v => (v % n).toLong), Array(0L, 1L, 2L))
    for (_ <- 1 to 5) {
      val e = intercept[IllegalStateException](new VFree(g, Params(3, 2, 3), Deadline.unlimited).run(4))
      assert(e.getMessage.contains("twice"))
      assert(!workersAlive)
    }
  }

  test("run rethrows TimeBudgetExceeded unwrapped and leaves no worker alive") {
    // The deadline has expired before the run starts, so every engine's
    // check at its first node, which samples the clock, throws.
    val deadline = new Deadline(1)
    Thread.sleep(5)
    intercept[TimeBudgetExceeded](new VFree(completeBiclique(22), Params(3, 2, 3), deadline).run(4))
    assert(!workersAlive)
  }

  // The lower-id maximality pass runs only at a would-be result; the graphs
  // below are fed to the kernel unreordered, so V's ids are its labels.
  private def checkLabelOrder(g: repro.graph.TemporalBipartiteGraph, p: Params, want: Set[Set[Long]]): Unit = {
    assert(BruteForce.mfgLabels(g, p) == want)
    assert(new VFree(g, p, Deadline.unlimited).run() == want)
  }

  test("lower-id pass: the only witness v' < v reaches λ at the last survived timestamp") {
    // {1, 2} with u0, u1 at t0..t3; v0 joins it at t1..t3 (λ = 3 is reached
    // at t3) and at t0 shares only u0, one m-neighbor short of τ_U.
    val group = for (u <- 0 to 1; v <- 1 to 2; t <- 0 to 3) yield (u, v, t)
    val witness = (0, 0, 0) +: (for (u <- 0 to 1; t <- 1 to 3) yield (u, 0, t))
    checkLabelOrder(TestGraphs.of(group ++ witness: _*), Params(2, 2, 3), Set(Set(0L, 1L, 2L)))
  }

  test("lower-id pass: a would-be witness inside V_S does not suppress the result") {
    // {0, 2} with u0, u1 at t0..t2; v0 ∈ V_S is the only id below 2 that
    // co-occurs λ times, and v1 shares u0, u1 with it at t0 alone.
    val group = for (u <- 0 to 1; v <- Seq(0, 2); t <- 0 to 2) yield (u, v, t)
    val v1 = for (u <- 0 to 1) yield (u, 1, 0)
    checkLabelOrder(TestGraphs.of(group ++ v1: _*), Params(2, 2, 3), Set(Set(0L, 2L)))
  }

  test("lower-id pass: sibling would-be results do not share witness counts") {
    // Children {1, 2} (t0, t1) and {1, 3} (t2, t3) of V_S = {1}: v0 co-occurs
    // once with each, so only a count leaked from the first pass would
    // reach λ = 2 in the second and suppress {1, 3}.
    val at = Seq(0 -> Seq(0, 1, 2), 1 -> Seq(1, 2), 2 -> Seq(0, 1, 3), 3 -> Seq(1, 3))
    val edges = for ((t, vs) <- at; v <- vs; u <- 0 to 1) yield (u, v, t)
    checkLabelOrder(TestGraphs.of(edges: _*), Params(2, 2, 2), Set(Set(0L, 1L), Set(1L, 2L), Set(1L, 3L)))
  }

  test("lower-id pass: a witness inside the next would-be result's V_S does not suppress it") {
    // MFGs {0, 1, 2, 4} (t0, t1) and {0, 2, 3} (t2, t3). In seed 0 the pass
    // at {0, 1, 4} finds v2, which is then the witness at {0, 2, 3}: it lies
    // in V_S there, so the full pass runs, finds no extender and {0, 2, 3}
    // is emitted.
    val groups = Seq(Seq(0, 1, 2, 4) -> Seq(0, 1), Seq(0, 2, 3) -> Seq(2, 3))
    val edges = for ((vs, ts) <- groups; v <- vs; t <- ts; u <- 0 to 1) yield (u, v, t)
    checkLabelOrder(TestGraphs.of(edges: _*), Params(2, 2, 2), Set(Set(0L, 1L, 2L, 4L), Set(0L, 2L, 3L)))
  }

  // The dominance cut: the graphs below are fed to the kernel unreordered,
  // so V's ids are its labels, and each is checked against brute force.
  private def cutStats(g: repro.graph.TemporalBipartiteGraph, p: Params, want: Set[Set[Long]]): EnumStats = {
    assert(BruteForce.mfgLabels(g, p) == want)
    val engine = new VFree(g, p, Deadline.unlimited)
    assert(engine.run() == want)
    engine.stats
  }

  test("dominance cut: fires above a would-be result, and the subtree it skips emits nothing") {
    // K(3, 5): seed 0 sets the witness to 1 at {0, 2, 3, 4}; {0, 3} is then
    // dominated, and its child {0, 3, 4} is never expanded. The uncut tree
    // has 2^5 − 1 = 31 nodes.
    val s = cutStats(completeBiclique(5), Params(3, 2, 3), Set((0 to 4).map(_.toLong).toSet))
    assert((s.nodes, s.dominatedCuts) == (29L, 8L))
  }

  test("dominance cut: not by a witness that misses one u of cand_U at one survived timestamp") {
    // τ_U = λ = 2, U = {u0, u1}. Seed 1: {1, 2, 3} (t0, t1) is extended by
    // v0, which becomes the witness. {1, 3} survives at t0, t1, t3; v0
    // covers cand_U = {u0, u1} at t0 and t1 but has only u0 at t3, so
    // {1, 3} is not dominated, and its child {1, 3, 4} (t1, t3) is an MFG.
    val at = Seq(0 -> Seq(0, 1, 2, 3), 1 -> Seq(0, 1, 2, 3, 4), 2 -> Seq(0, 1), 3 -> Seq(1, 3, 4))
    val edges = (for ((t, vs) <- at; v <- vs; u <- 0 to 1) yield (u, v, t)) :+ ((0, 0, 3))
    cutStats(TestGraphs.of(edges: _*), Params(2, 2, 2), Set(Set(0L, 1L, 2L, 3L), Set(1L, 3L, 4L)))
  }

  test("dominance cut: not by a witness inside V_S'") {
    // MFGs {0, 1, 2, 4} (t0, t1) and {0, 2, 3, 5} (t2, t3). In seed 0 the
    // pass at {0, 1, 4} finds v2, the witness; at {0, 2, 3} it lies in V_S',
    // where it trivially covers cand_U, and {0, 2, 3, 5} lies below.
    val groups = Seq(Seq(0, 1, 2, 4) -> Seq(0, 1), Seq(0, 2, 3, 5) -> Seq(2, 3))
    val edges = for ((vs, ts) <- groups; v <- vs; t <- ts; u <- 0 to 1) yield (u, v, t)
    cutStats(TestGraphs.of(edges: _*), Params(2, 2, 2), Set(Set(0L, 1L, 2L, 4L), Set(0L, 2L, 3L, 5L)))
  }

  test("dominance cut: not by a witness above the node's largest id") {
    // MFGs {0, 1, 3, 4} (t0, t1) and {0, 2, 3} (t2, t3). In seed 0 the pass
    // at {0, 1, 4} finds v3, the witness. v3 covers {0, 2}'s cand_U at t2
    // and t3, but 3 > 2: it can still join, and does in {0, 2, 3}.
    val groups = Seq(Seq(0, 1, 3, 4) -> Seq(0, 1), Seq(0, 2, 3) -> Seq(2, 3))
    val edges = for ((vs, ts) <- groups; v <- vs; t <- ts; u <- 0 to 1) yield (u, v, t)
    cutStats(TestGraphs.of(edges: _*), Params(2, 2, 2), Set(Set(0L, 1L, 3L, 4L), Set(0L, 2L, 3L)))
  }

  test("stats.nodes counts one node per branch expansion") {
    val g = TestGraphs.planted
    val engine = new VFree(g, Params(2, 2, 3), Deadline.unlimited)
    engine.run()
    assert(engine.stats.nodes >= g.nV) // at least each root seed
  }

  test("deadline interrupts deep search") {
    val g = TestGraphs.random(12, 16, 6, 0.7, 7777)
    val p = Params(1, 1, 1)
    // either times out or finishes with the right groups; no hang, and no
    // worker outlives the run
    val out = Enumerators.vFree(g, p, budgetMs = 1, workers = 4)
    assert(!workersAlive)
    assert(out.timedOut || out.results.get == Enumerators.vFree(g, p, workers = 1).results.get)
  }
}
