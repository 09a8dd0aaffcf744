package repro.graph

/** Test-only readings of a graph: `import GraphEdges._` gives every
  * [[TemporalBipartiteGraph]] its temporal edges as triples
  * (`internalEdges`, `labeledEdges`, read off its [[StaticIndex]]), its
  * momentary degrees and the support timestamps of Def. 2.4, each found
  * through the slot lookups with no search code shared.
  */
object GraphEdges {
  implicit class EdgeListing(private val g: TemporalBipartiteGraph) extends AnyVal {

    /** All temporal edges as internal-id triples (u, v, t), in that order. */
    def internalEdges: Array[(Int, Int, Int)] = {
      val s = StaticIndex(g)
      (for (u <- 0 until g.nU; i <- s.uOff(u) until s.uOff(u + 1); e <- s.tsOff(i) until s.tsOff(i + 1))
        yield (u, s.uNbr(i), s.ts(e))).toArray
    }

    /** All temporal edges in original-label space. */
    def labeledEdges: Array[(Long, Long, Long)] =
      internalEdges.map { case (u, v, t) => (g.uLabels(u), g.vLabels(v), g.tLabels(t)) }

    /** Momentary degree δ(v, t) for v ∈ V. */
    def mDegV(v: Int, t: Int): Int = { val k = g.vSlot(v, t); if (k < 0) 0 else g.gVOff(k + 1) - g.gVOff(k) }

    /** Momentary degree δ(u, t) for u ∈ U. */
    def mDegU(u: Int, t: Int): Int = { val k = g.uSlot(u, t); if (k < 0) 0 else g.gUOff(k + 1) - g.gUOff(k) }

    /** Sorted common m-neighbors ∩_{v∈vs} Γ(v, t), as U ids; all of U for
      * `vs` = ∅.
      */
    def commonMNeighbors(vs: Array[Int], t: Int): Array[Int] =
      vs.foldLeft(Array.range(0, g.nU)) { (acc, v) =>
        val k = g.vSlot(v, t)
        if (k < 0) Array.emptyIntArray else acc.intersect(g.gVNbr.slice(g.gVOff(k), g.gVOff(k + 1)).map(g.uOfSlot))
      }

    /** All support timestamps of `vs`: the t with ≥ τ_U common m-neighbors. */
    def supportTimestamps(vs: Array[Int], tauU: Int): Array[Int] =
      Array.range(0, g.nT).filter(t => commonMNeighbors(vs, t).length >= tauU)
  }
}
