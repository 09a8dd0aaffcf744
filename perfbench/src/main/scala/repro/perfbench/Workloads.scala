package repro.perfbench

import repro.bench.{Datasets, Tables}
import repro.core.Params

/** The benchmark's workloads. Each runs as a closed loop with one client:
  * the next query starts when the previous one has returned.
  *
  *  - `deep-d4`: `Enumerators.vFree` on the D4 stand-in at its defaults;
  *    search-bound (deep recursion, many results).
  *  - `sweep-d12`: `Enumerators.vFree` on the D12 stand-in, cycling through
  *    Table 1's settings and the Exp-10 grid; filter- and rebuild-bound.
  *  - `dist-d4`: `DistributedMfg.run(..).collect()` on the D4 edges; the
  *    only workload through `GFCoreDF`, the broadcast and the seed stage.
  *
  * FilterV and BK-ALG+ are not workloads: they are the paper's comparators,
  * whose shapes the Table 1 and Exp-1/6 benches already guard. FilterV- is
  * only the untimed reference enumerator here.
  */
object Workloads {

  final case class Workload(name: String, dataset: String, distributed: Boolean,
                            settings: Datasets.DatasetSpec => Seq[Params])

  /** Exp-10's grid: each parameter moved by -2..+2 around the defaults. */
  def exp10Grid(d: Params): Seq[Params] =
    (d.tauU - 2 to d.tauU + 2).map(x => d.copy(tauU = x)) ++
    (d.tauV - 2 to d.tauV + 2).map(x => d.copy(tauV = x)) ++
    (d.lambda - 2 to d.lambda + 2).map(x => d.copy(lambda = x))

  val all: Seq[Workload] = Seq(
    Workload("deep-d4", "D4", distributed = false, s => Seq(s.defaults)),
    Workload("sweep-d12", "D12", distributed = false,
      s => (Tables.table1Settings ++ exp10Grid(s.defaults)).distinct),
    Workload("dist-d4", "D4", distributed = true, s => Seq(s.defaults)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})"))
}

/** Counts that must repeat exactly for one input and one setting. */
final case class LocalCounts(vfreeNodes: Long, vfreeResults: Long, gfcoreEdgesOut: Long)

final case class DistCounts(gfcoredfJobs: Long, gfcoredfEdgesOut: Long, seedTasks: Long)

final case class SeedCounts(count: Long, totalNodes: Long, maxNodes: Long, top10Nodes: Long)

/** Counts pinned per stand-in and setting, measured at the stand-ins'
  * generator seeds. The benchmark's seed only relabels the stand-in, so
  * these hold at every seed (VFree's node count is not pinned: it moves by a
  * few nodes with the degree reorder's tie-breaks). A run whose counts
  * differ fails, so a change that alters the search or the filter cannot
  * pass as a pure speed-up.
  */
object Expected {
  /** (MFGs, temporal edges GFCore keeps). */
  val local: Map[(String, Params), (Long, Long)] = Map(
    ("D4", Params(3, 3, 3)) -> (12698L, 16215L),
    ("D12", Params(8, 4, 8)) -> (41L, 69143L),
    ("D12", Params(9, 5, 8)) -> (41L, 69115L),
    ("D12", Params(10, 6, 6)) -> (42L, 69765L),
    ("D12", Params(10, 6, 10)) -> (12L, 46362L),
    ("D12", Params(8, 6, 8)) -> (12L, 46362L),
    ("D12", Params(9, 6, 8)) -> (12L, 46362L),
    ("D12", Params(10, 6, 8)) -> (12L, 46362L),
    ("D12", Params(11, 6, 8)) -> (12L, 46362L),
    ("D12", Params(12, 6, 8)) -> (12L, 46362L),
    ("D12", Params(10, 4, 8)) -> (41L, 69143L),
    ("D12", Params(10, 5, 8)) -> (41L, 69115L),
    ("D12", Params(10, 7, 8)) -> (12L, 45912L),
    ("D12", Params(10, 8, 8)) -> (12L, 45009L),
    ("D12", Params(10, 6, 7)) -> (12L, 46362L),
    ("D12", Params(10, 6, 9)) -> (12L, 46362L),
  )

  /** (Spark jobs GFCoreDF runs, edges it keeps). */
  val dist: Map[(String, Params), (Long, Long)] = Map(
    ("D4", Params(3, 3, 3)) -> (114L, 16215L),
    ("D12", Params(8, 4, 8)) -> (44L, 69143L),
  )

  /** Root branches (V vertices of the pruned graph). */
  val seeds: Map[(String, Params), Long] = Map(
    ("D4", Params(3, 3, 3)) -> 124L,
    ("D12", Params(8, 4, 8)) -> 236L,
  )
}
