package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.Params

/** The (τ_V, τ_U, λ)-core graph filter (Algorithm 2) as an iterative
  * Catalyst program — the distributed counterpart of [[repro.core.GFCore]].
  *
  * Same greatest fixpoint, expressed as DataFrame rounds:
  *  - inner loop: per-snapshot (τ_V, τ_U)-core peel — groupBy (t, side)
  *    degree aggregation + semi-joins, repeated until the edge count is
  *    stable (each round peels every currently-violating vertex, so it
  *    terminates in ≤ peeling-depth rounds);
  *  - outer loop: λ-survival filter on V — distinct (v, t) count ≥ λ.
  *
  * `localCheckpoint` truncates the growing lineage each round. Off the
  * [[DistributedMfg]] path; tested against GFCore and measured by perfbench.
  */
object GFCoreDF {

  def apply(edges: DataFrame, p: Params): DataFrame = {
    var e = edges.selectExpr("cast(u as long) as u", "cast(v as long) as v", "cast(t as long) as t").distinct()
      .localCheckpoint()
    var eCount = e.count()
    var outerStable = false
    while (!outerStable) {
      // inner: per-snapshot (τ_V, τ_U)-core
      var innerStable = false
      while (!innerStable) {
        val uOk = e.groupBy("t", "u").agg(count(lit(1)).as("d")).filter(col("d") >= p.tauV).select("t", "u")
        val vOk = e.groupBy("t", "v").agg(count(lit(1)).as("d")).filter(col("d") >= p.tauU).select("t", "v")
        val e2 = e.join(uOk, Seq("t", "u"), "left_semi").join(vOk, Seq("t", "v"), "left_semi")
          .select("u", "v", "t").localCheckpoint()
        val c2 = e2.count()
        innerStable = c2 == eCount
        e = e2; eCount = c2
      }
      // outer: v must be in the core of ≥ λ snapshots
      val vFreq = e.select("v", "t").distinct()
        .groupBy("v").agg(count(lit(1)).as("s")).filter(col("s") >= p.lambda).select("v")
      val e2 = e.join(vFreq, Seq("v"), "left_semi").select("u", "v", "t").localCheckpoint()
      val c2 = e2.count()
      outerStable = c2 == eCount
      e = e2; eCount = c2
    }
    e
  }
}
