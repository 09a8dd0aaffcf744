package repro.graph

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.{BruteForce, Enumerators, GFCore, Params}
import repro.graph.GraphEdges._
import repro.graph.GraphGen.{check, edges => genEdges}

/** ScalaCheck properties of the graph builder `fromInternal` and of every
  * derived graph (the slot-mask builder `keepSlots` under random masks, as
  * GFCore's core, its degree-ordered form and `reorderByDegree`; and
  * `collapseStatic`), on generated small graphs with duplicate edges,
  * negative labels and empty edge sets, with their static projection read
  * through `StaticIndex`; the `Int`s a graph and its index hold against
  * their documented sizes; Java serialisation of a built and a derived
  * graph; plus the edge cases an empty graph, an all-dead mask, a filter
  * that removes everything and `|T| = 70` (two `TBits` words).
  */
class GraphBuilderPropertiesSpec extends AnyFunSuite {

  private val genParams = GraphGen.params(3)

  test("builder ≡ groupBy/sorted reference on generated edge lists") {
    check(forAll(genEdges) { es =>
      val got = GraphFields(TemporalBipartiteGraph.fromEdges(es))
      val want = GraphReference.of(es)
      (got == want) :| s"got $got\nwant $want"
    })
  }

  test("GFCore.apply ≡ fromEdges of the kept labelled edges, field by field") {
    check(forAll(genEdges, genParams) { (es, p) =>
      val g = TemporalBipartiteGraph.fromEdges(es)
      val kept = GFCore.filterEdges(g, p).map { case (u, v, t) => (g.uLabels(u), g.vLabels(v), g.tLabels(t)) }
      val got = GraphFields(GFCore(g, p))
      val want = GraphFields(TemporalBipartiteGraph.fromEdges(kept))
      (got == want) :| s"got $got\nwant $want"
    })
  }

  test("GFCore.degreeOrdered ≡ reorderByDegree(GFCore.apply), field by field") {
    check(forAll(genEdges, genParams) { (es, p) =>
      val g = TemporalBipartiteGraph.fromEdges(es)
      val got = GraphFields(GFCore.degreeOrdered(g, p))
      val want = GraphFields(Enumerators.reorderByDegree(GFCore(g, p)))
      (got == want) :| s"got $got\nwant $want"
    })
  }

  /** `g` with the ids without an edge dropped, U and T in relative order
    * and V by ascending (structural degree, id), or in relative order
    * without `byDegree`: a `sortBy` reference through `fromInternal`.
    */
  private def byDegreeReference(g: TemporalBipartiteGraph, byDegree: Boolean = true): TemporalBipartiteGraph = {
    val es = g.internalEdges
    val s = StaticIndex(g)
    def sDegU(u: Int) = s.uOff(u + 1) - s.uOff(u); def sDegV(v: Int) = s.vOff(v + 1) - s.vOff(v)
    val us = (0 until g.nU).filter(sDegU(_) > 0)
    val vs = (0 until g.nV).filter(sDegV(_) > 0).sortBy(v => if (byDegree) (sDegV(v), v) else (0, v))
    val ts = es.map(_._3).distinct.sorted.toSeq
    val (uId, vId, tId) = (us.zipWithIndex.toMap, vs.zipWithIndex.toMap, ts.zipWithIndex.toMap)
    TemporalBipartiteGraph.fromInternal(es.map(e => uId(e._1)), es.map(e => vId(e._2)), es.map(e => tId(e._3)),
      us.map(g.uLabels).toArray, vs.map(g.vLabels).toArray, ts.map(g.tLabels).toArray)
  }

  /** A graph of [[GraphGen.graphs]] with a random `keepSlots` mask over its
    * U-slots then V-slots: each slot alive (1 or 3) with one probability
    * per mask, dead (0) otherwise, so some alive slots have only dead
    * neighbours, which GFCore's masks never hold.
    */
  private val masked: Gen[(TemporalBipartiteGraph, Array[Int])] = for {
    g <- GraphGen.graphs
    pAlive <- Gen.oneOf(0.2, 0.5, 0.8, 1.0)
    mask <- Gen.listOfN(g.uSlotT.length + g.vSlotT.length,
      Gen.choose(0.0, 1.0).flatMap(x => if (x < pAlive) Gen.oneOf(1, 3) else Gen.const(0)))
  } yield (g, mask.toArray)

  /** Whether some alive slot of the mask lists only dead slots. */
  private def hasStrandedSlot(g: TemporalBipartiteGraph, alive: Array[Int]): Boolean = {
    val nSU = g.uSlotT.length
    def stranded(k: Int, off: Array[Int], nbr: Array[Int], base: Int) =
      (off(k) until off(k + 1)).forall(i => alive(base + nbr(i)) == 0)
    (0 until nSU).exists(k => alive(k) > 0 && stranded(k, g.gUOff, g.gUNbr, nSU)) ||
      g.vSlotT.indices.exists(k => alive(nSU + k) > 0 && stranded(k, g.gVOff, g.gVNbr, 0))
  }

  test("keepSlots ≡ fromInternal of the edges with both slots alive, renumbered by the reference") {
    var stranded = 0
    check(forAll(masked, Gen.oneOf(false, true)) { case ((g, alive), byDegree) =>
      if (hasStrandedSlot(g, alive)) stranded += 1
      // the kept edges found through the slot binary searches, in g's id space
      val kept = g.internalEdges.filter { case (u, v, t) =>
        alive(g.uSlot(u, t)) > 0 && alive(g.uSlotT.length + g.vSlot(v, t)) > 0
      }
      val h = TemporalBipartiteGraph.fromInternal(kept.map(_._1), kept.map(_._2), kept.map(_._3),
        g.uLabels, g.vLabels, g.tLabels)
      val got = GraphFields(g.keepSlots(alive, byDegree))
      val want = GraphFields(byDegreeReference(h, byDegree))
      (got == want) :| s"byDegree $byDegree\ngot $got\nwant $want"
    })
    assert(stranded > 0, "no mask had an alive slot with only dead neighbours")
  }

  test("GFCore.degreeOrdered ≡ the sortBy reference over fromEdges of the kept labelled edges") {
    check(forAll(genEdges, genParams) { (es, p) =>
      val g = TemporalBipartiteGraph.fromEdges(es)
      val kept = GFCore.filterEdges(g, p).map { case (u, v, t) => (g.uLabels(u), g.vLabels(v), g.tLabels(t)) }
      val got = GraphFields(GFCore.degreeOrdered(g, p))
      val want = GraphFields(byDegreeReference(TemporalBipartiteGraph.fromEdges(kept)))
      (got == want) :| s"got $got\nwant $want"
    })
  }

  test("keepSlots with an all-dead mask gives a 0×0×0 graph") {
    check(forAll(GraphGen.graphs, Gen.oneOf(false, true)) { (g, byDegree) =>
      val h = g.keepSlots(new Array[Int](g.uSlotT.length + g.vSlotT.length), byDegree)
      (h.nU == 0 && h.nV == 0 && h.nT == 0 && h.temporalEdgeCount == 0 && StaticIndex(h).uNbr.isEmpty) :|
        s"${h.nU}×${h.nV}×${h.nT}, ${h.temporalEdgeCount} edges"
    })
  }

  test("keepSlots with an all-alive mask drops isolated vertices and empty timestamps") {
    // labels 0–2 on each side, one edge (1, 2, 1): the other ids have none
    val g = TemporalBipartiteGraph.fromInternal(Array(1), Array(2), Array(1),
      Array(10L, 11L, 12L), Array(20L, 21L, 22L), Array(30L, 31L, 32L))
    for (byDegree <- Seq(false, true)) {
      val h = g.keepSlots(Array.fill(g.uSlotT.length + g.vSlotT.length)(1), byDegree)
      assert(h.nU == 1 && h.nV == 1 && h.nT == 1 && h.temporalEdgeCount == 1)
      assert(h.uLabels.toSeq == Seq(11L) && h.vLabels.toSeq == Seq(22L) && h.tLabels.toSeq == Seq(31L))
      assert(GraphFields(h) == GraphReference.of(Seq((11L, 22L, 31L))))
    }
  }

  test("reorderByDegree ≡ the sortBy reference; g is left intact") {
    check(forAll(GraphGen.graphs) { g =>
      val before = GraphFields(g)
      val want = GraphFields(byDegreeReference(g))
      val got = GraphFields(Enumerators.reorderByDegree(g))
      ((got == want) :| s"got $got\nwant $want") && ((GraphFields(g) == before) :| "g changed")
    })
  }

  test("collapseStatic ≡ fromEdges of (u, v, 0)") {
    // an empty graph collapses onto one (empty) timestamp, so only non-empty inputs compare
    check(forAll(genEdges.suchThat(_.nonEmpty)) { es =>
      val got = GraphFields(TemporalBipartiteGraph.fromEdges(es).collapseStatic)
      val want = GraphFields(TemporalBipartiteGraph.fromEdges(es.map { case (u, v, _) => (u, v, 0L) }))
      (got == want) :| s"got $got\nwant $want"
    })
    // isolated vertices stay, with no slot
    check(forAll(GraphGen.graphs) { g =>
      val es = g.internalEdges
      val got = GraphFields(g.collapseStatic)
      val want = GraphFields(TemporalBipartiteGraph.fromInternal(es.map(_._1), es.map(_._2), new Array[Int](es.length),
        g.uLabels, g.vLabels, Array(0L)))
      (got == want) :| s"got $got\nwant $want"
    })
  }

  /** The summed lengths of every `Int` array field of `x`, found by
    * reflection, so that an array added to the class is counted too. A lazy
    * field not yet built is null and holds none.
    */
  private def intsHeld(x: AnyRef): Long =
    x.getClass.getDeclaredFields.filter(_.getType == classOf[Array[Int]]).map { f =>
      f.setAccessible(true); Option(f.get(x).asInstanceOf[Array[Int]]).fold(0L)(_.length.toLong)
    }.sum

  test("a graph holds nU + nV + 2·|E| + 2·S_U + 3·S_V + 4 Ints, its static index nU + nV + 3·|E_static| + |E| + 3") {
    def sizes(h: TemporalBipartiteGraph): Prop = {
      val (e, s) = (h.temporalEdgeCount, StaticIndex(h))
      val graph = h.nU + h.nV + 2 * e + 2L * h.uSlotT.length + 3L * h.vSlotT.length + 4
      val unread = h.nU + h.nV + 2L * s.uNbr.length + 2 // before T(u, v) is first read
      val index = h.nU + h.nV + 3L * s.uNbr.length + e + 3
      val heldUnread = intsHeld(s)
      s.ts
      ((intsHeld(h) == graph) :| s"graph holds ${intsHeld(h)} Ints, the formula gives $graph") &&
        ((heldUnread == unread) :| s"unread index holds $heldUnread Ints, the formula gives $unread") &&
        ((intsHeld(s) == index) :| s"index holds ${intsHeld(s)} Ints, the formula gives $index")
    }
    // a built graph, a keepSlots graph derived from it and its static projection
    check(forAll(masked, Gen.oneOf(false, true)) { case ((g, alive), byDegree) =>
      Prop.all(Seq(g, g.keepSlots(alive, byDegree), g.collapseStatic).map(sizes): _*)
    })
    check(sizes(TemporalBipartiteGraph.fromEdges(Nil)), tests = 1)
  }

  /** Java serialisation (what a Spark broadcast does) there and back. */
  private def roundTrip(g: TemporalBipartiteGraph): TemporalBipartiteGraph = {
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(g); out.close()
    val in = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
    in.readObject().asInstanceOf[TemporalBipartiteGraph]
  }

  test("a graph survives Java serialisation, field by field") {
    // a built graph and a keepSlots graph derived from it (what DistributedMfg broadcasts)
    check(forAll(masked, Gen.oneOf(false, true)) { case ((g, alive), byDegree) =>
      Prop.all(Seq(g, g.keepSlots(alive, byDegree)).map { h =>
        val back = GraphFields(roundTrip(h))
        (back == GraphFields(h)) :| s"got $back\nwant ${GraphFields(h)}"
      }: _*)
    })
    val empty = TemporalBipartiteGraph.fromEdges(Nil)
    assert(GraphFields(roundTrip(empty)) == GraphFields(empty))
  }

  test("empty edge set: a 0×0×0 graph on which every enumerator returns ∅") {
    val g = TemporalBipartiteGraph.fromEdges(Nil)
    assert(g.nU == 0 && g.nV == 0 && g.nT == 0 && g.temporalEdgeCount == 0)
    for (name <- Enumerators.algorithmNames)
      assert(Enumerators.run(name, g, Params(1, 1, 1)).results.get == Set.empty[Set[Long]], name)
  }

  test("a filter that removes everything compacts to 0×0×0") {
    val g = TestGraphs.tiny
    for (f <- Seq(GFCore(g, Params(4, 4, 4)), GFCore.degreeOrdered(g, Params(4, 4, 4))))
      assert(f.nU == 0 && f.nV == 0 && f.nT == 0 && f.temporalEdgeCount == 0)
    for (name <- Enumerators.algorithmNames)
      assert(Enumerators.run(name, g, Params(4, 4, 4)).results.get == Set.empty[Set[Long]], name)
  }

  test("|T| = 70 (two TBits words): FilterV and VFree variants ≡ brute force") {
    val genCase = for {
      seed <- Gen.choose(0L, 1000000L)
      density <- Gen.oneOf(0.3, 0.5)
      p <- for (tauU <- Gen.choose(1, 3); tauV <- Gen.choose(1, 3); lambda <- Gen.oneOf(1, 10, 30, 65))
           yield Params(tauU, tauV, lambda)
    } yield (seed, density, p)
    check(forAll(genCase) { case (seed, density, p) =>
      val g = TestGraphs.random(5, 6, 70, density, seed)
      val want = BruteForce.mfgLabels(g, p)
      val same = Enumerators.algorithmNames.map { n =>
        (Enumerators.run(n, g, p).results.get == want) :| s"$n at $p, seed $seed"
      }
      Prop.all(((g.nT == 70) :| s"nT ${g.nT}") +: same: _*)
    }, tests = 40)
  }
}
