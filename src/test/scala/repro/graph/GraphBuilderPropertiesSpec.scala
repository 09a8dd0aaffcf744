package repro.graph

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.{BruteForce, Enumerators, GFCore, Params}
import repro.graph.GraphGen.{check, edges => genEdges}

/** ScalaCheck properties of the one graph builder and of every graph
  * derived through it (the one compaction, as GFCore's core, its
  * degree-ordered form and `reorderByDegree`; and `collapseStatic`), on
  * generated small graphs with duplicate edges, negative labels and empty edge sets; Java
  * serialisation of a built graph; plus the edge cases an empty graph, a
  * filter that removes everything and `|T| = 70` (two `TBits` words).
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
    * and V by ascending (structural degree, id): a `sortBy` reference.
    */
  private def byDegreeReference(g: TemporalBipartiteGraph): TemporalBipartiteGraph = {
    val es = g.internalEdges
    val us = (0 until g.nU).filter(g.sDegU(_) > 0)
    val vs = (0 until g.nV).filter(g.sDegV(_) > 0).sortBy(v => (g.sDegV(v), v))
    val ts = es.map(_._3).distinct.sorted.toSeq
    val (uId, vId, tId) = (us.zipWithIndex.toMap, vs.zipWithIndex.toMap, ts.zipWithIndex.toMap)
    TemporalBipartiteGraph.fromInternal(es.map(e => uId(e._1)), es.map(e => vId(e._2)), es.map(e => tId(e._3)),
      us.map(g.uLabels).toArray, vs.map(g.vLabels).toArray, ts.map(g.tLabels).toArray)
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
    check(forAll(GraphGen.graphs) { g =>
      val back = GraphFields(roundTrip(g))
      (back == GraphFields(g)) :| s"got $back\nwant ${GraphFields(g)}"
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
