package repro.bench

import repro.SparkSpec
import repro.core.Enumerators

/** Pins the search trees of the five names that run the FilterV kernel
  * (BK-ALG+ and FilterV with its three ablations) on the small stand-ins at
  * their default parameters: nodes, frequency checks and #MFG. Every count is
  * deterministic, so any change to the kernel's candidate order, pruning or
  * verification shows up here.
  */
class FilterVKernelPinSpec extends SparkSpec {

  /** dataset → (#MFG, name → (nodes, freqChecks)). */
  private val pinned: Seq[(String, Int, Map[String, (Long, Long)])] = Seq(
    ("D1", 20, Map(
      "BK-ALG+" -> (531L, 5174L), "FilterV-" -> (531L, 820L), "FilterV-FR" -> (531L, 3431L),
      "FilterV-VM" -> (531L, 739L), "FilterV" -> (531L, 2195L))),
    ("D2", 184, Map(
      "BK-ALG+" -> (740L, 5733L), "FilterV-" -> (740L, 1395L), "FilterV-FR" -> (740L, 5150L),
      "FilterV-VM" -> (740L, 1269L), "FilterV" -> (740L, 3392L))),
    ("D3", 3100, Map(
      "BK-ALG+" -> (12114L, 207162L), "FilterV-" -> (12112L, 39850L), "FilterV-FR" -> (12112L, 216550L),
      "FilterV-VM" -> (12112L, 39850L), "FilterV" -> (12112L, 216550L))),
    ("D5", 4676, Map(
      "BK-ALG+" -> (9273L, 90329L), "FilterV-" -> (9271L, 52151L), "FilterV-FR" -> (9271L, 180465L),
      "FilterV-VM" -> (9271L, 51977L), "FilterV" -> (9271L, 173394L))),
  )

  test("BK-ALG+ and the FilterV variants keep their pinned search trees on D1, D2, D3 and D5") {
    for ((dataset, mfgs, counts) <- pinned) {
      val spec = Datasets.byName(dataset)
      val g = Tables.loadGraph(spark, spec)
      for ((name, (nodes, checks)) <- counts) {
        val o = Enumerators.run(name, g, spec.defaults, workers = 1)
        assert((o.stats.nodes, o.stats.freqChecks, o.count) == ((nodes, checks, mfgs)), s"$dataset $name")
      }
    }
  }
}
