package repro.bench

import repro.SparkSpec
import repro.core.Enumerators

/** Smoke tests over the small stand-ins (the full sweep runs in bench/). */
class DatasetsSpec extends SparkSpec {

  test("catalog covers D1–D15 with paper timestamps and defaults") {
    assert(Datasets.all.size == 15)
    assert(Datasets.byName("D14").nT == 66)
    assert(Datasets.byName("D15").defaults == repro.core.Params(11, 11, 11))
    assert(Datasets.byName("D1").defaults == repro.core.Params(6, 2, 4))
  }

  test("byName rejects unknown datasets") {
    intercept[NoSuchElementException](Datasets.byName("D99"))
  }

  test("edges are deterministic per spec") {
    val spec = Datasets.byName("D3")
    val a = spec.edges(spark).collect().toSet
    val b = spec.edges(spark).collect().toSet
    assert(a == b)
  }

  test("D3 stand-in: VFree and FilterV agree and find planted MFGs") {
    val spec = Datasets.byName("D3")
    val g = Tables.loadGraph(spark, spec)
    val vf = Enumerators.vFree(g, spec.defaults, budgetMs = 120000)
    val fv = Enumerators.filterV(g, spec.defaults, budgetMs = 120000)
    assert(vf.results.isDefined && fv.results.isDefined)
    assert(vf.results.get == fv.results.get)
    assert(vf.results.get.nonEmpty, "no MFGs found on D3 stand-in")
  }

  test("D1 stand-in: statistics scale as configured") {
    val spec = Datasets.byName("D1")
    val g = Tables.loadGraph(spark, spec)
    assert(g.nT <= spec.nT)
    assert(g.nU <= spec.nU + 1)
    assert(g.nV <= spec.nV + 1)
    val ne = g.temporalEdgeCount
    assert(ne >= spec.targetEdges / 2 && ne <= spec.targetEdges * 3 / 2)
  }
}
