package repro.spark

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.core.Frequency
import repro.graph.{StaticIndex, TemporalBipartiteGraph}
import repro.graph.GraphEdges._

/** DuckDB checks of the graph and frequency code the enumerators run: the
  * static view (the graph's `StaticIndex`), the slot views (through
  * `GraphEdges`' m-degrees and support timestamps of Def. 2.4), Lemma 3.2's
  * T(v) bitsets and the Table 2 counts, each read from a graph built by
  * `fromDF` and compared with SQL over the same edge table.
  *
  * The class keeps the name of the DataFrame layer these cases once
  * checked, and every case keeps its name, so that test ids stay stable
  * across that layer's removal.
  */
class BipartiteDFSpec extends SparkSpec {
  import spark.implicits._

  private def edges(seed: Long) = edgesDF(TestGraphs.random(8, 8, 5, 0.4, seed).labeledEdges.toSeq)

  test("normalize drops duplicate temporal edges") {
    val df = edgesDF(Seq((1L, 2L, 3L), (1L, 2L, 3L), (1L, 2L, 4L)))
    assert(TemporalBipartiteGraph.fromDF(df).temporalEdgeCount == 2)
  }

  for (seed <- 0 until 4) {
    test(s"staticEdges vs DuckDB (seed $seed)") {
      val e = edges(seed)
      val g = TemporalBipartiteGraph.fromDF(e)
      val s = StaticIndex(g)
      val static = for (u <- 0 until g.nU; i <- s.uOff(u) until s.uOff(u + 1))
        yield (g.uLabels(u), g.vLabels(s.uNbr(i)))
      Oracle.assertEquivalent(static.toDF("u", "v"), "SELECT DISTINCT u, v FROM edges", "edges" -> e)
    }
  }

  for (seed <- 0 until 4) {
    test(s"mDegV vs DuckDB (seed $seed)") {
      val e = edges(seed + 10)
      val g = TemporalBipartiteGraph.fromDF(e)
      val mdeg = for (v <- 0 until g.nV; t <- 0 until g.nT if g.mDegV(v, t) > 0)
        yield (g.vLabels(v), g.tLabels(t), g.mDegV(v, t).toLong)
      Oracle.assertEquivalent(
        mdeg.toDF("v", "t", "mdeg"),
        "SELECT v, t, count(*) AS mdeg FROM edges GROUP BY v, t",
        "edges" -> e)
    }
  }

  for (seed <- 0 until 4) {
    test(s"mDegU vs DuckDB (seed $seed)") {
      val e = edges(seed + 20)
      val g = TemporalBipartiteGraph.fromDF(e)
      val mdeg = for (u <- 0 until g.nU; t <- 0 until g.nT if g.mDegU(u, t) > 0)
        yield (g.uLabels(u), g.tLabels(t), g.mDegU(u, t).toLong)
      Oracle.assertEquivalent(
        mdeg.toDF("u", "t", "mdeg"),
        "SELECT u, t, count(*) AS mdeg FROM edges GROUP BY u, t",
        "edges" -> e)
    }
  }

  for {
    seed <- 0 until 3
    tauU <- Seq(1, 2)
  } {
    test(s"tSets (Lemma 3.2 input) vs DuckDB (seed $seed, tauU=$tauU)") {
      val e = edges(seed + 30)
      val g = TemporalBipartiteGraph.fromDF(e)
      val bits = new Frequency.TBits(g, tauU).bits
      val tcount = for (v <- 0 until g.nV; c = bits(v).map(java.lang.Long.bitCount).sum if c > 0)
        yield (g.vLabels(v), c.toLong)
      Oracle.assertEquivalent(
        tcount.toDF("v", "tcount"),
        s"""SELECT v, count(*) AS tcount FROM (
           |  SELECT v, t, count(*) AS mdeg FROM edges GROUP BY v, t
           |) WHERE mdeg >= $tauU GROUP BY v""".stripMargin,
        "edges" -> e)
    }
  }

  for {
    seed <- 0 until 3
    tauU <- Seq(1, 2)
  } {
    test(s"supportTimestamps (Def. 2.4) vs DuckDB (seed $seed, tauU=$tauU)") {
      val e = edgesDF(TestGraphs.random(8, 8, 5, 0.45, seed + 40).labeledEdges.toSeq)
      val g = TemporalBipartiteGraph.fromDF(e)
      val rng = new scala.util.Random(seed)
      val vs = rng.shuffle(g.vLabels.toList).take(2).sorted
      val inList = vs.map(v => s"'$v'").mkString(", ")
      val vIds = vs.map(java.util.Arrays.binarySearch(g.vLabels, _)).toArray
      val ts = g.supportTimestamps(vIds, tauU).map(g.tLabels(_))
      Oracle.assertEquivalent(
        ts.toSeq.toDF("t"),
        s"""SELECT t FROM (
           |  SELECT t, count(*) AS nu FROM (
           |    SELECT t, u FROM edges WHERE v IN ($inList)
           |    GROUP BY t, u HAVING count(DISTINCT v) = ${vs.size}
           |  ) GROUP BY t
           |) WHERE nu >= $tauU""".stripMargin,
        "edges" -> e)
    }
  }

  for (seed <- 0 until 3) {
    test(s"supportTimestamps agrees with the in-memory NaiveFreq (seed $seed)") {
      // every pair of V on a graph built in memory (`fromEdges`), at τ_U = 2
      val g = TestGraphs.random(7, 7, 5, 0.5, seed + 60)
      val pairs = for {
        i <- 0 until g.nV; j <- i + 1 until g.nV
        t <- g.supportTimestamps(Array(i, j), 2)
      } yield (g.vLabels(i), g.vLabels(j), g.tLabels(t))
      Oracle.assertEquivalent(
        pairs.toDF("v1", "v2", "t"),
        """SELECT a.v AS v1, b.v AS v2, a.t AS t FROM edges a JOIN edges b
          |  ON a.u = b.u AND a.t = b.t AND CAST(a.v AS BIGINT) < CAST(b.v AS BIGINT)
          |GROUP BY a.v, b.v, a.t HAVING count(*) >= 2""".stripMargin,
        "edges" -> edgesDF(g.labeledEdges.toSeq))
    }
  }

  test("stats counts distinct vertices, edges and timestamps") {
    def counts(g: TemporalBipartiteGraph) = (g.nU.toLong, g.nV.toLong, g.temporalEdgeCount, g.nT.toLong)
    val small = edgesDF(Seq((1L, 10L, 0L), (1L, 11L, 0L), (2L, 10L, 1L), (2L, 10L, 1L)))
    assert(counts(TemporalBipartiteGraph.fromDF(small)) == ((2L, 2L, 3L, 2L)))
    // a random edge list with a slice of its rows repeated
    val rows = TestGraphs.random(9, 8, 6, 0.3, 70).labeledEdges.toSeq
    val e = edgesDF(rows ++ rows.slice(5, 25))
    Oracle.assertEquivalent(
      Seq(counts(TemporalBipartiteGraph.fromDF(e))).toDF("nu", "nv", "ne", "nt"),
      """SELECT count(DISTINCT u) AS nu, count(DISTINCT v) AS nv,
        |  (SELECT count(*) FROM (SELECT DISTINCT u, v, t FROM edges)) AS ne,
        |  count(DISTINCT t) AS nt FROM edges""".stripMargin,
      "edges" -> e)
  }
}
