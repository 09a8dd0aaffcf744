package repro.graph

/** A graph's temporal edges listed as triples, for tests and oracles:
  * `import GraphEdges._` gives every [[TemporalBipartiteGraph]]
  * `internalEdges` and `labeledEdges`, read off its [[StaticIndex]].
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
  }
}
