package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.scalacheck.Prop.{forAll, propBoolean}

import repro.{SparkSpec, TestGraphs}
import repro.core.{BruteForce, Enumerators, Params}
import repro.graph.{GraphGen, TemporalBipartiteGraph}
import repro.graph.GraphEdges._

/** The distributed pipeline (`fromDF` + GFCore + degree reorder on the
  * driver, broadcast graph, seed-parallel VFree) must return exactly the
  * local result set, each group in exactly one row, and reject null ids.
  */
class DistributedMfgSpec extends SparkSpec {

  private def runToSets(e: DataFrame, p: Params): Set[Set[Long]] =
    DistributedMfg.run(spark, e, p).collect().map(_.getSeq[Long](0).toSet).toSet

  test("distributed ≡ brute force on the planted graph") {
    val g = TestGraphs.planted
    val e = edgesDF(g.labeledEdges.toSeq)
    val p = Params(2, 2, 3)
    assert(runToSets(e, p) == Set(Set(10L, 11L, 12L)))
  }

  test("distributed ≡ local VFree on a random graph (seed 21)") {
    val g = TestGraphs.random(8, 9, 5, 0.45, 21)
    val e = edgesDF(g.labeledEdges.toSeq)
    val p = Params(2, 2, 2)
    val local = Enumerators.vFree(g, p).results.get
    assert(runToSets(e, p) == local)
    assert(local == BruteForce.mfgLabels(g, p))
  }

  test("distributed ≡ local VFree with overlapping MFGs (seed 22)") {
    val g = TestGraphs.random(9, 9, 4, 0.55, 22)
    val e = edgesDF(g.labeledEdges.toSeq)
    val p = Params(2, 1, 2)
    assert(runToSets(e, p) == Enumerators.vFree(g, p).results.get)
  }

  test("distributed handles a fully-pruned graph (empty result)") {
    val g = TestGraphs.tiny
    val e = edgesDF(g.labeledEdges.toSeq)
    assert(runToSets(e, Params(3, 3, 5)).isEmpty)
  }

  test("result DataFrame groups are sorted label arrays") {
    val g = TestGraphs.planted
    val e = edgesDF(g.labeledEdges.toSeq)
    val rows = DistributedMfg.run(spark, e, Params(2, 2, 3)).collect()
    for (r <- rows) {
      val arr = r.getSeq[Long](0)
      assert(arr == arr.sorted)
    }
  }

  test("a null u, v or t fails with an error naming the column") {
    val schema = StructType(Seq("u", "v", "t").map(StructField(_, LongType, nullable = true)))
    val biclique = for { u <- 0L to 2L; v <- 0L to 2L; t <- 0L to 2L } yield Row(u, v, t)
    for ((row, col) <- Seq(Row(null, 1L, 0L) -> "u", Row(1L, null, 0L) -> "v", Row(1L, 1L, null) -> "t")) {
      val e = spark.createDataFrame(java.util.Arrays.asList(biclique :+ row: _*), schema)
      val err = intercept[IllegalArgumentException](DistributedMfg.run(spark, e, Params(3, 3, 3)))
      assert(err.getMessage.contains(s"null $col"), err.getMessage)
    }
  }

  test("property: distributed ≡ local VFree ≡ brute force, each group in exactly one row") {
    GraphGen.check(forAll(GraphGen.edges, GraphGen.params(3)) { (es, p) =>
      val g = TemporalBipartiteGraph.fromEdges(es)
      val rows = DistributedMfg.run(spark, edgesDF(es), p).collect()
        .map(_.getSeq[Long](0).toSet).toSeq
      val got = rows.toSet
      val local = Enumerators.vFree(g, p).results.get
      ((rows.size == got.size) :| s"$p: duplicate rows in $rows") &&
        ((got == local) :| s"$p: got $got\nlocal $local") &&
        ((got == BruteForce.mfgLabels(g, p)) :| s"$p: got $got, brute force differs")
    }, tests = 30)
  }
}
