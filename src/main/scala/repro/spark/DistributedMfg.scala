package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{GFCore, Params, VFree, Deadline}
import repro.graph.TemporalBipartiteGraph

/** Distributed MFG enumeration: the local pipeline plus a Spark fan-out.
  *
  *  1. On the driver: `fromDF`, then [[GFCore.degreeOrdered]] (one build),
  *     as in `Enumerators.vFree`. The driver holds the unfiltered graph once
  *     (about 0.44 MB for the D4 stand-in) while GFCore runs.
  *  2. Broadcast the filtered graph, which holds slot views only, to the
  *     executors.
  *  3. One seed per V vertex over a Dataset, each run with [[VFree.runSeed]]:
  *     root branches are independent and their results are globally maximal
  *     without cross-partition reconciliation (Theorem 4.1's order argument).
  *  4. Return the MFGs as a DataFrame of sorted label arrays.
  *
  * The Catalyst form of Algorithm 2 in this package keeps the same edges but
  * runs one Spark job per peeling round (seconds, against milliseconds for
  * GFCore), so it is not on this path. Each partition reuses one VFree's
  * counting arrays for its seeds.
  */
object DistributedMfg {

  /** Runs the pipeline; output DataFrame has one `group: array<long>` column
    * with the MFG's V-side labels in ascending order. A null `u`, `v` or `t`
    * fails with an `IllegalArgumentException` naming the column.
    */
  def run(spark: SparkSession, edges: DataFrame, p: Params): DataFrame = {
    import spark.implicits._
    val g = GFCore.degreeOrdered(TemporalBipartiteGraph.fromDF(edges), p)
    val bc = spark.sparkContext.broadcast(g)
    val parallelism = math.max(1, math.min(g.nV, spark.sparkContext.defaultParallelism * 2))
    spark.range(0, g.nV.toLong)
      .repartition(parallelism)
      .mapPartitions { seeds =>
        val engine = new VFree(bc.value, p, Deadline.unlimited)
        seeds.flatMap(seed => engine.runSeed(seed.toInt).iterator.map(_.toArray.sorted))
      }
      .toDF("group")
  }
}
