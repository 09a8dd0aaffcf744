package repro.core

/** The MFG problem parameters: (τ_U, τ_V) biclique size constraints and the
  * frequency constraint λ (Definitions 2.3–2.6).
  */
final case class Params(tauU: Int, tauV: Int, lambda: Int) {
  require(tauU >= 1 && tauV >= 1 && lambda >= 1, s"parameters must be positive: $this")
}

/** Raised by enumerators when their time budget runs out (the paper reports
  * such runs as INF after 12 hours; the benches use smaller budgets).
  */
final class TimeBudgetExceeded(ms: Long) extends RuntimeException(s"time budget of ${ms}ms exceeded")

/** Cooperative time budget checked inside search recursions. Immutable, so
  * one deadline can be shared by every worker of a run. A `limitMs` ≤ 0
  * never expires.
  */
final class Deadline(limitMs: Long) extends Serializable {
  private val startNanos = System.nanoTime()

  /** Cheap amortised check: samples the clock when `nodes`, the caller's own
    * node count, is a multiple of 1024.
    */
  def check(nodes: Long): Unit =
    if (limitMs > 0 && (nodes & 1023) == 0 && System.nanoTime() - startNanos > limitMs * 1000000L)
      throw new TimeBudgetExceeded(limitMs)
}

object Deadline {
  /** No limit. */
  val unlimited: Deadline = new Deadline(0)
}

/** Mutable instrumentation counters shared by the enumerators.
  *
  * `cmNanos` is the Table 1 metric: time spent computing valid candidate
  * sets plus time spent verifying maximality ("FilterV-CM" / "VFree-CM").
  * FilterV times both phases of each node; VFree, whose every node is one
  * or the other, times each seed's search as one span, so its search makes
  * no clock calls per node.
  * `step1Touches` and `step3Touches` are VFree's Theorem 4.2 cost terms as
  * deterministic counts: Γ(v, t) entries read by Step 1, and the entries
  * read by Steps 3–4 and Theorem 4.1's tests — the Γ(u, t) entries Step 3
  * scans or walks past above its later-sibling bound, those of the lower-id
  * maximality pass, and the Γ(w, t) entries of the witness's extension and
  * dominance tests. `maxChecks` counts the would-be results that reached
  * Theorem 4.1's test and `witnessHits` those that the witness settled.
  * `dominatedCuts` counts the frequent nodes whose children and emit were
  * skipped because the witness dominates them. `maxDepth` is the largest
  * |V_S| a VFree node reached. All but the times are deterministic,
  * whatever the number of workers.
  */
final class EnumStats extends Serializable {
  var nodes: Long = 0L          // search-tree nodes expanded
  var freqChecks: Long = 0L     // frequency verifications performed
  var cmNanos: Long = 0L        // candidate-set computation + maximality time
  var totalNanos: Long = 0L     // end-to-end enumeration time
  var filteredEdges: Long = 0L  // temporal edges surviving the graph filter
  var inputEdges: Long = 0L     // temporal edges before the graph filter
  var step1Touches: Long = 0L   // VFree: Γ(v, t) entries scanned in Step 1
  var step3Touches: Long = 0L   // VFree: entries read by Steps 3–4 and Theorem 4.1's test
  var maxChecks: Long = 0L      // VFree: would-be results given Theorem 4.1's test
  var witnessHits: Long = 0L    // VFree: of those, the ones the witness settled
  var dominatedCuts: Long = 0L  // VFree: nodes cut because the witness dominates them
  var maxDepth: Int = 0         // VFree: largest |V_S| of a search node

  /** Adds another run's search counters to these (`maxDepth` by max); the
    * per-run fields `totalNanos`, `filteredEdges` and `inputEdges` are left
    * alone.
    */
  def merge(o: EnumStats): Unit = {
    nodes += o.nodes
    freqChecks += o.freqChecks
    cmNanos += o.cmNanos
    step1Touches += o.step1Touches
    step3Touches += o.step3Touches
    maxChecks += o.maxChecks
    witnessHits += o.witnessHits
    dominatedCuts += o.dominatedCuts
    maxDepth = math.max(maxDepth, o.maxDepth)
  }

  def totalMs: Double = totalNanos / 1e6
  def cmShare: Double = if (totalNanos == 0) 0.0 else cmNanos.toDouble / totalNanos
  def pruneRatio: Double = if (inputEdges == 0) 0.0 else 1.0 - filteredEdges.toDouble / inputEdges
}
