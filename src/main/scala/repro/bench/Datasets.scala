package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.SynthData
import repro.core.Params

/** Scaled-down synthetic stand-ins for the paper's datasets D1–D15
  * (Table 2). Real graphs (MIMIC-III, Alibaba, KONECT) are unavailable
  * offline; each stand-in keeps the paper's |T| and default (τ_U, τ_V, λ)
  * and scales |U|, |V|, |E| down by the per-dataset `scale` factor.
  *
  * The edge budget |E| ≈ paperE/scale is split between four components
  * (DESIGN.md §3 explains why this preserves the experiments' behavior):
  *
  *  - zipf+uniform background (the prunable bulk),
  *  - planted frequent groups: overlapping V windows assigned round-robin to
  *    up to four disjoint timestamp pools, with U communities shared across
  *    pools — aligned inside a pool (large candidate sets, the
  *    verification-heavy regime), misaligned across pools but sharing
  *    static neighbors (the case only the Lemma 3.2 rule / frequency
  *    verification rejects),
  *  - decoy groups with frequency λ−2: they survive every per-snapshot
  *    (τ_V, τ_U)-core but fail the λ constraint — precisely the structure
  *    the (τ_V, τ_U, λ)-core filter exists to remove,
  *  - a dense Bernoulli block (the combinatorial search hot spot).
  */
object Datasets {

  final case class DatasetSpec(
      name: String,
      paperU: Long, paperV: Long, paperE: Long,
      scale: Int,
      nT: Int,
      defaults: Params,
      seed: Long,
  ) {
    def nU: Long = math.max(50L, paperU / scale)
    def nV: Long = math.max(30L, paperV / scale)

    /** Scaled |E| target: the paper's |E| divided by `scale`. */
    def targetEdges: Long = math.max(2000L, paperE / scale)

    // ---- planted structure (frequent groups) -----------------------------
    def gV: Int = defaults.tauV + (if (defaults.tauV >= 8) 2 else 4)
    def gU: Int = defaults.tauU + 3
    def freq: Int = defaults.lambda + 4
    def nGroups: Int = {
      val perGroup = gV.toLong * gU * freq
      math.min(40, math.max(8, (targetEdges / 5 / perGroup).toInt))
    }

    // ---- decoy structure (infrequent groups, pruned by the λ-core) -------
    def decoyFreq: Int = math.max(1, defaults.lambda - 2)
    def nDecoys: Int = {
      val perGroup = gV.toLong * gU * decoyFreq
      math.min(60, math.max(8, (targetEdges / 4 / perGroup).toInt))
    }

    // ---- dense block ------------------------------------------------------
    def denseUN: Long = math.min(8L * defaults.tauU, nU / 2)
    def denseTN: Long = math.min(nT.toLong, 3L * defaults.lambda + 8)
    def denseProb: Double = 0.42
    def denseVN: Long = {
      val budget = targetEdges * 30 / 100
      val cap = math.max(4L, (budget / (denseUN * denseTN * denseProb)).toLong)
      math.max(4L, math.min(math.min(10L * defaults.tauV + 20, nV / 2), cap))
    }

    def plantedEdgeEstimate: Long =
      nGroups.toLong * gV * gU * freq + nDecoys.toLong * gV * gU * decoyFreq
    def denseEdgeEstimate: Long = (denseUN * denseVN * denseTN * denseProb).toLong

    /** Background edges fill the remaining budget. */
    def nBackgroundEdges: Long =
      math.max(500L, targetEdges - plantedEdgeEstimate - denseEdgeEstimate)

    /** Materializes the stand-in's edge DataFrame (deterministic in seed). */
    def edges(spark: SparkSession): DataFrame = {
      import spark.implicits._
      val background = SynthData.temporalBipartite(spark, nU, nV, nT, nBackgroundEdges, seed = seed)
      val rng = new scala.util.Random(seed * 7919 + 13)
      val tsAll = rng.shuffle((0L until nT.toLong).toList)
      val poolSize = freq
      val nPools = math.max(1, math.min(4, nT / poolSize))
      val pools = (0 until nPools).map(k => tsAll.slice(k * poolSize, (k + 1) * poolSize))
      val step = math.max(1, gV / 2)
      // planted windows live in [nV/5, 2nV/5): clear of the zipf head (whose
      // vertices are active at every timestamp, which would defeat the
      // temporal alignment) and of the dense block at [nV/2, nV/2+vN)
      val base = nV / 5
      val span = math.max(1L, nV / 5)
      // Two wide U communities, assigned alternately. Groups sample gU users
      // per timestamp from their community, so
      //  - same pool + same community: candidates share static neighbors AND
      //    survived timestamps, but per-timestamp common users stay below
      //    τ_U — only the full frequency verification rejects them (the
      //    CheckFRE-heavy regime of Table 1);
      //  - different pool + same community: static neighbors shared, but no
      //    timestamp alignment — pruned by the Lemma 3.2 rule alone;
      //  - different community: rejected by the static intersection.
      // Community size keeps the expected per-timestamp overlap of two
      // independent gU-samples (gU²/size) at least 2 below τ_U, otherwise
      // cross-group pairs become frequent by chance and the lattice of
      // accidental groups explodes at small τ_U.
      val communitySize = math.max(2 * gU + 4, gU * gU / math.max(1, defaults.tauU - 2))
      val communities = Array.fill(2)(SynthData.uPool(communitySize, nU, rng))
      val plantedEdges: Seq[(Long, Long, Long)] = (0 until nGroups).flatMap { i =>
        val vLo = base + (i.toLong * step) % span
        val vIds = (vLo until vLo + gV).toSeq
        val ts = rng.shuffle(pools(i % nPools)).take(freq)
        SynthData.plantedGroup(vIds, ts, gU, nU, rng, uPool = communities(i % 2))
      }
      // decoys occupy [3nV/5, 4nV/5): structurally identical to planted
      // groups but with only λ−2 support timestamps
      val decoyBase = 3L * nV / 5
      val decoyEdges: Seq[(Long, Long, Long)] = (0 until nDecoys).flatMap { i =>
        val vLo = decoyBase + (i.toLong * step) % span
        val vIds = (vLo until vLo + gV).toSeq
        val ts = rng.shuffle(tsAll).take(decoyFreq)
        SynthData.plantedGroup(vIds, ts, gU, nU, rng)
      }
      val denseDf = SynthData.denseBlock(spark,
        uLo = nU / 2, uN = denseUN,
        vLo = nV / 2, vN = denseVN,
        tLo = 0, tN = denseTN,
        prob = denseProb, seed = seed + 31)
      background
        .union(plantedEdges.toDF("u", "v", "t"))
        .union(decoyEdges.toDF("u", "v", "t"))
        .union(denseDf)
    }
  }

  /** The 15 stand-ins, in paper order. Paper |U|,|V|,|E| retained for the
    * Table 2 comparison; `scale` is the down-scaling factor we apply.
    */
  val all: Seq[DatasetSpec] = Seq(
    DatasetSpec("D1 (MI)",   100000L,   15648L,     58951L, 10,  25, Params(6, 2, 4),     101),
    DatasetSpec("D2 (Ip)",    28540L,   37088L,     73153L, 10,  31, Params(3, 2, 3),     102),
    DatasetSpec("D3 (diq)",   25771L,    1526L,    133874L, 10,  12, Params(3, 3, 3),     103),
    DatasetSpec("D4 (vec)",   33587L,    2282L,    339722L, 10,  14, Params(3, 3, 3),     104),
    DatasetSpec("D5 (LK)",   337510L,   42046L,    605642L, 30,  35, Params(3, 3, 3),     105),
    DatasetSpec("D6 (ben)",  249726L,   79269L,    845577L, 30,  17, Params(3, 3, 3),     106),
    DatasetSpec("D7 (Wut)",  530419L,  175215L,   2118877L, 30,  39, Params(3, 2, 3),     107),
    DatasetSpec("D8 (Bti)",  767448L,  204674L,   2517857L, 30,  22, Params(3, 3, 3),     108),
    DatasetSpec("D9 (AR)",  1230916L, 2146058L,   5754118L, 100, 21, Params(3, 3, 3),     109),
    DatasetSpec("D10 (id)", 2183495L,  125482L,   7890901L, 100, 59, Params(3, 3, 3),     110),
    DatasetSpec("D11 (ar)", 2943712L,  209374L,  13601759L, 100, 57, Params(3, 3, 3),     111),
    DatasetSpec("D12 (nl)", 3800350L,  220848L,  28294026L, 300, 65, Params(10, 6, 8),    112),
    DatasetSpec("D13 (it)", 4857109L,  343861L,  41146957L, 300, 65, Params(10, 6, 8),    113),
    DatasetSpec("D14 (fr)", 8870763L,  757622L,  66586964L, 400, 66, Params(10, 6, 8),    114),
    DatasetSpec("D15 (de)", 5910433L, 1025085L,  70745969L, 400, 67, Params(11, 11, 11),  115),
  )

  def byName(name: String): DatasetSpec =
    all.find(_.name.startsWith(name)).getOrElse(throw new NoSuchElementException(name))
}
