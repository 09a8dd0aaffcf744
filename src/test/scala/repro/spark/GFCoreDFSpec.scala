package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.core.{GFCore, Params}
import repro.graph.{GraphFields, TemporalBipartiteGraph}
import repro.graph.GraphEdges._

/** The Catalyst GFCore must compute exactly the same (τ_V, τ_U, λ)-core as
  * the in-memory peeling implementation (the fixpoint is unique), and a
  * graph built from its edges must equal `GFCore.apply`'s field by field.
  */
class GFCoreDFSpec extends SparkSpec {

  private def check(seed: Long, p: Params): Unit = {
    val g = TestGraphs.random(7, 7, 4, 0.45, seed)
    val e = edgesDF(g.labeledEdges.toSeq)
    val kept = GFCoreDF(e, p)
    val dfEdges = kept.collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).toSet
    val localEdges = GFCore.filterEdges(g, p)
      .map { case (u, v, t) => (g.uLabels(u), g.vLabels(v), g.tLabels(t)) }.toSet
    assert(dfEdges == localEdges,
      s"DF-only: ${dfEdges -- localEdges}; local-only: ${localEdges -- dfEdges}")
    // either filter yields the same graph for DistributedMfg to reorder and broadcast
    assert(GraphFields(TemporalBipartiteGraph.fromDF(kept)) == GraphFields(GFCore(g, p)))
  }

  test("GFCoreDF ≡ local GFCore (seed 1, (2,2,2))") { check(1, Params(2, 2, 2)) }
  test("GFCoreDF ≡ local GFCore (seed 2, (2,1,3))") { check(2, Params(2, 1, 3)) }
  test("GFCoreDF ≡ local GFCore (seed 3, (1,1,1))") { check(3, Params(1, 1, 1)) }

  test("GFCoreDF keeps a planted group and drops noise") {
    val g = TestGraphs.planted
    val e = edgesDF(g.labeledEdges.toSeq)
    val kept = GFCoreDF(e, Params(2, 2, 3)).collect()
    assert(kept.nonEmpty)
    assert(kept.map(_.getLong(1)).toSet == Set(10L, 11L, 12L))
  }

  test("GFCoreDF fully prunes an infrequent graph") {
    val g = TestGraphs.tiny
    val e = edgesDF(g.labeledEdges.toSeq)
    assert(GFCoreDF(e, Params(2, 2, 5)).count() == 0)
  }
}
