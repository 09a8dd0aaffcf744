package repro.graph

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.SparkSpec
import repro.graph.GraphEdges._

/** `TemporalBipartiteGraph.fromDF` input checks: null ids fail clearly, and
  * every `Long` (negative ones too) is a valid label.
  */
class FromDFSpec extends SparkSpec {

  private def frame(rows: Seq[Row]) = {
    val schema = StructType(Seq("u", "v", "t").map(StructField(_, LongType, nullable = true)))
    spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
  }

  test("fromDF rejects a null id with an error naming its column") {
    for ((row, col) <- Seq(Row(null, 1L, 0L) -> "u", Row(1L, null, 0L) -> "v", Row(1L, 1L, null) -> "t")) {
      val e = intercept[IllegalArgumentException] {
        TemporalBipartiteGraph.fromDF(frame(Seq(Row(0L, 0L, 0L), row)))
      }
      assert(e.getMessage.contains(s"null $col"), e.getMessage)
    }
  }

  test("fromDF keeps negative labels, in ascending order") {
    val edges = Seq((-5L, -1L, -100L), (3L, -1L, -100L), (-5L, 7L, 2L), (Long.MinValue, Long.MaxValue, 0L))
    val g = TemporalBipartiteGraph.fromDF(frame(edges.map { case (u, v, t) => Row(u, v, t) }))
    assert(g.labeledEdges.toSet == edges.toSet)
    assert(g.uLabels.toSeq == Seq(Long.MinValue, -5L, 3L))
    assert(g.vLabels.toSeq == Seq(-1L, 7L, Long.MaxValue))
    assert(g.tLabels.toSeq == Seq(-100L, 0L, 2L))
  }
}
