package repro.bench

import repro.SparkSpec
import repro.core.{Enumerators, Models}
import repro.graph.TemporalBipartiteGraph

/** Unit-level checks of the case-study generator (the Table 3 bench runs
  * the full comparison; these keep the semantics pinned down in `sbt test`).
  */
class CaseStudySpec extends SparkSpec {

  private lazy val graph = TemporalBipartiteGraph.fromDF(CaseStudy.edges(spark))

  test("case-study graph has the declared dimensions") {
    assert(graph.nV <= CaseStudy.conditions.length)
    assert(graph.nT <= CaseStudy.nT)
    assert(graph.temporalEdgeCount > 5000)
  }

  test("MFG recovers the planted multimorbidity clusters") {
    val res = Enumerators.vFree(graph, CaseStudy.params).results.get
    val names = res.map(_.map(CaseStudy.conditionName))
    for (cluster <- CaseStudy.plantedClusters) {
      assert(names.exists(g => cluster.toSet.subsetOf(g)),
        s"cluster $cluster not recovered; got ${names.take(10)}")
    }
  }

  test("MFB finds nothing at the case-study parameters (rotating patients)") {
    val res = Models.mfb(graph, CaseStudy.params, budgetMs = 120000)
    assert(res.isDefined, "MFB timed out on case-study graph")
    assert(res.get.isEmpty, s"unexpected MFB results: ${res.get.take(3)}")
  }

  test("MSG blurs the temporal structure into coarser groups") {
    val msg = Models.msg(graph, CaseStudy.params, budgetMs = 120000).get
    val mfg = Enumerators.vFree(graph, CaseStudy.params).results.get
    assert(msg.nonEmpty)
    // static accumulation can only merge: the largest static group is at
    // least as large as the largest temporal one
    assert(msg.map(_.size).max >= mfg.map(_.size).max)
  }
}
