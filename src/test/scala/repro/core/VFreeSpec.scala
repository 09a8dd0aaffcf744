package repro.core

import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.graph.{GraphGen, TemporalBipartiteGraph}
import repro.graph.GraphEdges._

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

  private val counterNames = Seq("nodes", "step-1 touches", "step-3 touches", "maxDepth", "maximality checks",
    "dominance cuts", "cover cuts", "lookahead cuts")

  private def counters(s: EnumStats): Seq[Long] =
    Seq(s.nodes, s.step1Touches, s.step3Touches, s.maxDepth.toLong, s.maxChecks, s.dominatedCuts, s.coverCuts,
      s.lookaheadCuts)

  /** Each counter that differs, named with its got and want values; empty when none does. */
  private def moved(got: Seq[Long], want: Seq[Long]): String =
    counterNames.indices.collect { case i if got(i) != want(i) => s"${counterNames(i)} got ${got(i)}, want ${want(i)}" }
      .mkString("; ")

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
    val diff = moved(bwdCounters, fwdCounters)
    assert(diff.isEmpty, diff)
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

  // Every subset of V is frequent, so without the cuts the search tree is
  // the full subset lattice, 2^n − 1 nodes. At seed s every later id covers
  // cand_U, so head ∪ tail {s, …, n − 1} is frequent with no read, and the
  // lookahead cut ends the seed at its root: n nodes in all, each at depth 1.
  for (n <- Seq(4, 10, 16, 40))
    test(s"complete biclique K(3, $n) at 3 timestamps, (3, 2, 3): $n nodes, depth 1") {
      val engine = new VFree(completeBiclique(n), Params(3, 2, 3), Deadline.unlimited)
      assert(engine.run() == Set((0 until n).map(_.toLong).toSet))
      assert(engine.stats.nodes == n)
      assert(engine.stats.maxDepth == 1)
    }

  test("search tree pinned: random(30, 30, 8, 0.5, 4242), GFCore + reorder at (2, 2, 2)") {
    val p = Params(2, 2, 2)
    val g = GFCore.degreeOrdered(TestGraphs.random(30, 30, 8, 0.5, 4242), p)
    val engine = new VFree(g, p, Deadline.unlimited)
    assert(engine.run().size == 27007)
    val diff = moved(counters(engine.stats), Seq(176817L, 13547771L, 12969636L, 9L, 124138L, 14940L, 1388L, 39896L))
    assert(diff.isEmpty, diff)
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
          (moved(c, runs.head._3).isEmpty :| s"$p, k = $k against k = 1: ${moved(c, runs.head._3)}")
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
    // in V_S there, so the pass skips it, finds no extender and {0, 2, 3} is
    // emitted.
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
    // U = {u0..u3} at t0, t1: v0 has all four, v1, v3, v4 have u0..u2, v2
    // has u0, u1 and v5 has u2, u3. No later id covers {0}'s cand_U, and v5
    // leaves {0}'s head ∪ tail {0, …, 5} with no common u, so every child of
    // {0} runs. In seed 0 {0, 2}'s head ∪ tail {0, 2, 3, 4} is extended by
    // v1, which becomes the witness; v1 then holds {0, 3}'s cand_U =
    // {u0, u1, u2} at both t, so {0, 3} is cut and its child {0, 3, 4} is
    // never expanded; {0, 4} is cut too.
    val nbrs = Seq(0 -> (0 to 3), 1 -> (0 to 2), 2 -> (0 to 1), 3 -> (0 to 2), 4 -> (0 to 2), 5 -> (2 to 3))
    val edges = for ((v, us) <- nbrs; u <- us; t <- 0 to 1) yield (u, v, t)
    val s = cutStats(TestGraphs.of(edges: _*), Params(2, 2, 2), Set((0 to 4).map(_.toLong).toSet, Set(0L, 5L)))
    assert((s.nodes, s.dominatedCuts) == (11L, 2L))
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

  // The cover cut: a later candidate v' that holds cand_U(t) at every
  // survived t of a node joins every group below it, so the node's children
  // above v' are skipped. The graphs are fed unreordered and checked
  // against brute force.
  test("cover cut: fires on K(3, 5), and the children it skips emit nothing") {
    // K(3, 5) at (2, 2, 3) without (u0, v3, t0) and (u1, v4, t0): every
    // group holding both v3 and v4 has only u2 at t0, so no head ∪ tail
    // above both is frequent. v1 and v2 cover cand_U = {u0, u1, u2}, so {0}
    // skips its children 2, 3 and 4, {0, 1} its children 3 and 4, and {1}
    // its children 3 and 4.
    val edges = (for (u <- 0 until 3; v <- 0 until 5; t <- 0 until 3) yield (u, v, t)).filterNot(e =>
      e == ((0, 3, 0)) || e == ((1, 4, 0)))
    val s = cutStats(TestGraphs.of(edges: _*), Params(2, 2, 3), Set(Set(0L, 1L, 2L, 3L), Set(0L, 1L, 2L, 4L)))
    assert((s.coverCuts, s.lookaheadCuts) == (7L, 0L))
  }

  test("cover cut: not by a candidate that misses one u of cand_U at one survived timestamp") {
    // τ_U = 2. {0}'s cand_U is {u0, u1, u2} at t0 and t1. v1 has all three
    // at t0 but only u0, u1 at t1, so it does not cover {0}, and {0, 2}
    // (cand_U {u1, u2}; v1 joins it at t0 alone) is an MFG.
    val nbrs = Seq((0, 0) -> (0 to 2), (0, 1) -> (0 to 2), (1, 0) -> (0 to 2), (1, 1) -> (0 to 1), (2, 0) -> (1 to 2),
      (2, 1) -> (1 to 2))
    val edges = for (((v, t), us) <- nbrs; u <- us) yield (u, v, t)
    val s = cutStats(TestGraphs.of(edges: _*), Params(2, 2, 2), Set(Set(0L, 1L), Set(0L, 2L)))
    assert(s.coverCuts == 0)
  }

  test("cover cut: not by a candidate with no slot at one survived timestamp") {
    // λ = 2 of {0}'s survived t0, t1, t2 (cand_U {u0, u1} at each). v1 holds
    // {u0, u1} at t0 and t1 and has no slot at t2, so it does not cover {0},
    // and {0, 2} (t0, t2; v1 joins it at t0 alone) is an MFG.
    val at = Seq(0 -> Seq(0, 1, 2), 1 -> Seq(0, 1), 2 -> Seq(0, 2))
    val edges = for ((v, ts) <- at; t <- ts; u <- 0 to 1) yield (u, v, t)
    val s = cutStats(TestGraphs.of(edges: _*), Params(2, 2, 2), Set(Set(0L, 1L), Set(0L, 2L)))
    assert(s.coverCuts == 0)
  }

  test("cover cut: the children at or below the cover still emit, with ids above it") {
    // v0 and v2 have u0, u1, u2 at t0 and t1; v1 and v3 have u0, u1 and v4
    // has u1, u2, so {0}'s head ∪ tail {0, …, 4} has only u1. v2 covers {0},
    // so its children 3 and 4 are skipped, but its children 1 and 2, at or
    // below the cover, still reach the ids above it: the MFGs {0, 1, 2, 3}
    // and {0, 2, 4} hold 3 and 4.
    val nbrs = Seq(0 -> (0 to 2), 1 -> (0 to 1), 2 -> (0 to 2), 3 -> (0 to 1), 4 -> (1 to 2))
    val edges = for ((v, us) <- nbrs; u <- us; t <- 0 to 1) yield (u, v, t)
    val s = cutStats(TestGraphs.of(edges: _*), Params(2, 2, 2), Set((0 to 3).map(_.toLong).toSet, Set(0L, 2L, 4L)))
    assert(s.coverCuts > 0)
  }

  // The lookahead cut: when a node's head ∪ tail H = V_S' ∪ C_V* is
  // frequent, H is the only group below it that can be maximal. The graphs
  // are fed unreordered and checked against brute force.
  test("lookahead cut: fires on K(3, 6) at every seed with a later candidate") {
    val s = cutStats(completeBiclique(6), Params(3, 2, 3), Set((0 to 5).map(_.toLong).toSet))
    assert((s.nodes, s.lookaheadCuts, s.coverCuts, s.maxChecks) == (6L, 5L, 0L, 5L))
  }

  test("lookahead cut: when every candidate covers the node, the test makes no reads") {
    // Seed 0 of K(3, n): Step 3 reads the n − 1 later ids of Γ(u, t) for 3 u
    // at 3 t, Theorem 4.1 has no lower id to read, and the lookahead reads
    // nothing more.
    val n = 7
    val engine = new VFree(completeBiclique(n), Params(3, 2, 3), Deadline.unlimited)
    assert(engine.runSeed(0).toSet == BruteForce.mfgLabels(completeBiclique(n), Params(3, 2, 3)))
    assert((engine.stats.nodes, engine.stats.lookaheadCuts) == (1L, 1L))
    assert(engine.stats.step3Touches == 9L * (n - 1))
  }

  test("lookahead cut: not when one u of cand_U misses one candidate and leaves fewer than τ_U") {
    // τ_U = λ = 2, {0}'s cand_U = {u0, u1, u2} at t0 and t1, and C_V* =
    // {1, 2}. At t1 v1 lacks u0 and v2 lacks u1, so H = {0, 1, 2} keeps only
    // u2 there: the test stops at t1, H holds one timestamp, and {0}'s
    // children {0, 1} and {0, 2} run and emit.
    val edges = (for (u <- 0 to 2; v <- 0 to 2; t <- 0 to 1) yield (u, v, t)).filterNot(e =>
      e == ((0, 1, 1)) || e == ((1, 2, 1)))
    val s = cutStats(TestGraphs.of(edges: _*), Params(2, 2, 2), Set(Set(0L, 1L), Set(0L, 2L)))
    assert((s.nodes, s.lookaheadCuts, s.coverCuts) == (5L, 0L, 0L))
  }

  test("lookahead cut: a frequent head ∪ tail that a lower id extends emits nothing and sets the witness") {
    // U = {u0..u3} at t0, t1: v0 and v1 have all four, v2 has u0, u1, v3
    // has u0..u2 and v4 has u2, u3. Seed 1: {1}'s head ∪ tail {1, 2, 3, 4}
    // has no common u, so its children run. {1, 2}'s is {1, 2, 3}, frequent
    // and extended by v0: nothing is emitted and v0 becomes the witness,
    // which then dominates {1, 3} and {1, 4}.
    val nbrs = Seq(0 -> (0 to 3), 1 -> (0 to 3), 2 -> (0 to 1), 3 -> (0 to 2), 4 -> (2 to 3))
    val g = TestGraphs.of((for ((v, us) <- nbrs; u <- us; t <- 0 to 1) yield (u, v, t)): _*)
    cutStats(g, Params(2, 2, 2), Set(Set(0L, 1L, 2L, 3L), Set(0L, 1L, 4L)))
    val engine = new VFree(g, Params(2, 2, 2), Deadline.unlimited)
    assert(engine.runSeed(1).isEmpty)
    val s = engine.stats
    assert((s.nodes, s.lookaheadCuts, s.dominatedCuts) == (4L, 1L, 2L))
  }

  test("stack: K(3, 2000) less two edges at (2, 2, 3) reaches depth 1,999 on a 1 MB thread stack") {
    // Without (u0, v_{n−2}, t0) and (u1, v_{n−1}, t0), a group holding both
    // v_{n−2} and v_{n−1} keeps only u2 at t0, so the MFGs are V less one of
    // them. Below {0, …, d} the smallest cover is d + 1 and head ∪ tail is
    // infrequent, so seed 0 descends one id at a time to {0, …, n − 3},
    // whose two children emit: n nodes, depth n − 1. 1 MB is the JVM's
    // default thread stack on 64-bit Linux, the stack `run`'s workers get.
    val n = 2000
    val edges = (for (u <- 0 until 3; v <- 0 until n; t <- 0 until 3) yield (u, v, t)).filterNot(e =>
      e == ((0, n - 2, 0)) || e == ((1, n - 1, 0)))
    val engine = new VFree(TestGraphs.of(edges: _*), Params(2, 2, 3), Deadline.unlimited)
    var got: Either[Throwable, Set[Set[Long]]] = Right(Set.empty)
    val thread = new Thread(null, () => got = try Right(engine.runSeed(0).toSet) catch { case e: Throwable => Left(e) },
      "vfree-deep", 1L << 20)
    thread.start()
    thread.join()
    val all = (0 until n).map(_.toLong).toSet
    assert(got == Right(Set(all - (n - 1), all - (n - 2))))
    assert((engine.stats.nodes, engine.stats.maxDepth) == (n.toLong, n - 1))
  }

  /** The summed lengths of `x`'s array fields of element type `elem`, found
    * by reflection so that an array added to the class is counted too,
    * leaving out `stack` and the arrays that `x` shares with `g`.
    */
  private def held(x: AnyRef, g: TemporalBipartiteGraph, elem: Class[_]): Long = {
    def arrays(o: AnyRef) = o.getClass.getDeclaredFields.filter(_.getType.getComponentType == elem).map { f =>
      f.setAccessible(true); (f.getName, f.get(o))
    }
    val shared = arrays(g).map(_._2)
    arrays(x).collect { case (name, a) if !name.endsWith("stack") && !shared.exists(_ eq a) =>
      java.lang.reflect.Array.getLength(a).toLong
    }.sum
  }

  test("property: an engine holds S_U + S_V + 2·M + 2·nT + 4·nV Ints, S_V Longs, 2·nV Booleans and an nT stack") {
    GraphGen.check(forAll(GraphGen.graphs, GraphGen.params(4)) { (g0, p) =>
      val g = GFCore.degreeOrdered(g0, p)
      val e = new VFree(g, p, Deadline.unlimited)
      val (sU, sV) = (g.uSlotT.length.toLong, g.vSlotT.length.toLong)
      val m = (0 until g.nV).map(v => (0 until g.nT).map(g.mDegV(v, _)).sum).maxOption.getOrElse(0)
      val stackField = e.getClass.getDeclaredFields.find(_.getName.endsWith("stack")).get
      stackField.setAccessible(true)
      val want = Seq(sU + sV + 2L * m + 2L * g.nT + 4L * g.nV, sV, 2L * g.nV, g.nT.toLong)
      val got = Seq(held(e, g, classOf[Int]), held(e, g, classOf[Long]), held(e, g, classOf[Boolean]),
        stackField.get(e).asInstanceOf[Array[Int]].length.toLong)
      (got == want) :| s"Ints, Longs, Booleans, stack: got $got, want $want"
    }, tests = 300)
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
