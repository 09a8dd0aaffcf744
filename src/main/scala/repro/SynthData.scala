package repro

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Deterministic synthetic temporal bipartite graphs (for the MFG
  * reproduction).
  *
  * All generators are hash-based (xxhash64 of the row id), not
  * rand()-based, so the edge set is fully deterministic in (params, seed)
  * regardless of partitioning -- the local/Spark/DuckDB cross-checks rely
  * on this. Edge schema: (u: long, v: long, t: long); duplicates are
  * legal and dropped by consumers (an edge is a set element).
  */
object SynthData {

  /** Uniform hash in [0, n) derived from the row id. */
  private def hmod(idCol: Column, seed: Long, n: Long): Column =
    pmod(xxhash64(idCol, lit(seed)), lit(n))

  /** Uniform hash in (0, 1] derived from the row id. */
  private def h01(idCol: Column, seed: Long): Column =
    (pmod(xxhash64(idCol, lit(seed)), lit(1000000000L)) + 1) / lit(1.0e9)

  /** Background edges of a temporal bipartite graph: U uniform, V zipf-like
    * (popular products/conditions attract most interactions), timestamps
    * uniform over [0, nT).
    */
  def temporalBipartite(spark: SparkSession, nU: Long, nV: Long, nT: Int,
                        nEdges: Long, alphaV: Double = 1.15, seed: Long = 7): DataFrame = {
    import spark.implicits._
    // 60% of edges follow the zipf head (popular items), 40% are uniform so
    // the long tail of V is populated and |V| lands near the scaled target.
    val zipfV = least(lit(nV - 1),
      (pow(h01($"id", seed + 1), lit(-1.0 / alphaV)) - 1).cast(LongType))
    val unifV = hmod($"id", seed + 3, nV)
    spark.range(nEdges).select(
      hmod($"id", seed, nU)                           as "u",
      when(h01($"id", seed + 4) < 0.6, zipfV).otherwise(unifV) as "v",
      hmod($"id", seed + 2, nT.toLong)                as "t",
    )
  }

  /** Dense random block `[uLo, uLo+uN) x [vLo, vLo+vN) x [tLo, tLo+tN)` with
    * Bernoulli(prob) edges -- the combinatorial hot spot that makes BK-style
    * enumeration expensive (stands in for the dense communities of the real
    * KONECT graphs).
    */
  def denseBlock(spark: SparkSession, uLo: Long, uN: Long, vLo: Long, vN: Long,
                 tLo: Long, tN: Long, prob: Double, seed: Long = 11): DataFrame = {
    import spark.implicits._
    spark.range(uN * vN * tN)
      .filter(hmod($"id", seed, 1000000L) < (prob * 1e6).toLong)
      .select(
        ($"id" / (vN * tN) + uLo).cast(LongType)      as "u",
        ($"id" / tN % vN + vLo).cast(LongType)        as "v",
        ($"id" % tN + tLo).cast(LongType)             as "t",
      )
  }

  /** One planted frequency group: the V vertices `vIds` form a full biclique
    * with `gU` U-vertices at each of the given timestamps -- by construction
    * a frequency group with frequency >= |timestamps|. The U side is sampled
    * per timestamp from a small stable pool (real actors recur across time;
    * a fresh U side per timestamp would inflate static degrees far beyond
    * anything in the paper's graphs). Driver-side and deterministic in rng.
    */
  def plantedGroup(vIds: Seq[Long], timestamps: Seq[Long], gU: Int, nU: Long,
                   rng: scala.util.Random, uPool: Seq[Long] = Nil): Seq[(Long, Long, Long)] = {
    val pool =
      if (uPool.nonEmpty) uPool
      else Iterator.continually(math.floorMod(rng.nextLong(), nU)).distinct.take(gU + 3).toSeq
    timestamps.flatMap { t =>
      val us = rng.shuffle(pool).take(gU)
      for (u <- us; v <- vIds) yield (u, v, t)
    }
  }

  /** Draws a stable U pool for [[plantedGroup]]: `size` distinct U ids. */
  def uPool(size: Int, nU: Long, rng: scala.util.Random): Seq[Long] =
    Iterator.continually(math.floorMod(rng.nextLong(), nU)).distinct.take(size).toSeq
}
