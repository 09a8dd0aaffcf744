package repro.core

import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.graph.{GraphFields, GraphGen}

class ModelsSpec extends AnyFunSuite {

  test("MSG on tiny graph: static collapse merges all timestamps") {
    val g = TestGraphs.tiny
    // static graph is the complete 3×3 bipartite graph → one maximal group
    assert(Models.msg(g, Params(2, 2, 99)).get == Set(Set(0L, 1L, 2L)))
  }

  test("MSG ignores the λ of the MFG model") {
    val g = TestGraphs.planted
    // statically, v10,v11,v12 share u0..u3 (accumulated over time)
    assert(Models.msg(g, Params(2, 2, 3)).get.contains(Set(10L, 11L, 12L)))
  }

  test("MSG equals MFG when the graph has a single timestamp") {
    for (seed <- 0 until 8) {
      val g = TestGraphs.random(6, 6, 1, 0.5, seed + 300)
      val p = Params(2, 2, 1)
      assert(Models.msg(g, p).get == BruteForce.mfgLabels(g, p), s"seed $seed")
    }
  }

  test("property: MSG ≡ brute-force MFGs of the static collapse at λ = 1") {
    GraphGen.check(forAll(GraphGen.graphs, GraphGen.params(4)) { (g, p) =>
      val got = Models.msg(g, p).get
      val want = BruteForce.mfgLabels(g.collapseStatic, p.copy(lambda = 1))
      (got == want) :| s"$p: got $got\nwant $want"
    })
  }

  test("MFB finds a biclique repeated identically across snapshots") {
    // same biclique {u0,u1} × {v0,v1} at t0,t1,t2
    val edges = for { u <- 0 to 1; v <- 0 to 1; t <- 0 to 2 } yield (u, v, t)
    val g = TestGraphs.of(edges: _*)
    val res = Models.mfb(g, Params(2, 2, 3)).get
    assert(res == Vector(Models.Biclique(Set(0L, 1L), Set(0L, 1L))))
  }

  test("MFB misses groups whose U side rotates (the case-study phenomenon)") {
    val g = TestGraphs.planted // U side differs per timestamp
    assert(Models.mfb(g, Params(2, 2, 3)).get.isEmpty)
    // while MFG finds the group
    assert(Enumerators.vFree(g, Params(2, 2, 3)).results.get == Set(Set(10L, 11L, 12L)))
  }

  test("MFB respects the frequency threshold") {
    // biclique at 2 snapshots only
    val edges = for { u <- 0 to 1; v <- 0 to 1; t <- 0 to 1 } yield (u, v, t)
    val g = TestGraphs.of(edges: _*)
    assert(Models.mfb(g, Params(2, 2, 3)).get.isEmpty)
    assert(Models.mfb(g, Params(2, 2, 2)).get.nonEmpty)
  }

  test("MFB results are componentwise maximal and frequent") {
    for (seed <- 0 until 6) {
      val g = TestGraphs.random(5, 5, 4, 0.55, seed + 800)
      val p = Params(2, 2, 2)
      val res = Models.mfb(g, p).get
      val gammaV = GraphFields(g).gammaV
      for (b <- res) {
        val vIdx = b.vs.map(l => g.vLabels.indexOf(l)).toArray.sorted
        val uIdx = b.us.map(l => g.uLabels.indexOf(l)).toArray.sorted
        // frequency: #timestamps where the full biclique is present
        val freq = (0 until g.nT).count { t =>
          vIdx.forall(v => uIdx.forall(u => gammaV(t)(v).contains(u)))
        }
        assert(freq >= p.lambda, s"biclique $b infrequent")
        assert(b.us.size >= p.tauU && b.vs.size >= p.tauV)
        // no single-vertex extension on either side stays frequent
        for (v2 <- 0 until g.nV if !vIdx.contains(v2)) {
          val f2 = (0 until g.nT).count { t =>
            (vIdx :+ v2).forall(v => uIdx.forall(u => gammaV(t)(v).contains(u)))
          }
          assert(f2 < p.lambda, s"extension v$v2 keeps $b frequent")
        }
        for (u2 <- 0 until g.nU if !uIdx.contains(u2)) {
          val f2 = (0 until g.nT).count { t =>
            vIdx.forall(v => (uIdx :+ u2).forall(u => gammaV(t)(v).contains(u)))
          }
          assert(f2 < p.lambda, s"extension u$u2 keeps $b frequent")
        }
      }
    }
  }
}
