package repro.graph

/** Every view of a [[TemporalBipartiteGraph]] re-nested as plain immutable
  * collections, so two graphs (or a graph and [[GraphReference.of]]) compare
  * field by field with `==`, and tests can read a list as `gammaV(t)(v)`.
  * The static views `uAdj`, `uAdjTs` and `vAdj` are read from the graph's
  * [[StaticIndex]], so every comparison checks the index too.
  */
final case class GraphFields(
    nU: Int, nV: Int, nT: Int,
    uLabels: Seq[Long], vLabels: Seq[Long], tLabels: Seq[Long],
    uAdj: Seq[Seq[Int]], uAdjTs: Seq[Seq[Seq[Int]]], vAdj: Seq[Seq[Int]],
    gammaU: Seq[Seq[Seq[Int]]], gammaV: Seq[Seq[Seq[Int]]])

object GraphFields {
  def apply(g: TemporalBipartiteGraph): GraphFields = {
    def list(off: Array[Int], nbr: Array[Int], k: Int): Seq[Int] = nbr.slice(off(k), off(k + 1)).toSeq
    // Γ(w, t) through w's slot at t (−1: empty), mapped from slot ids back to vertex ids
    def slotList(off: Array[Int], nbr: Array[Int], k: Int): Seq[Int] = if (k < 0) Seq.empty else list(off, nbr, k)
    val s = StaticIndex(g)
    GraphFields(g.nU, g.nV, g.nT, g.uLabels.toSeq, g.vLabels.toSeq, g.tLabels.toSeq,
      Vector.tabulate(g.nU)(list(s.uOff, s.uNbr, _)),
      Vector.tabulate(g.nU)(u => (s.uOff(u) until s.uOff(u + 1)).map(list(s.tsOff, s.ts, _))),
      Vector.tabulate(g.nV)(list(s.vOff, s.vNbr, _)),
      Vector.tabulate(g.nT, g.nU)((t, u) => slotList(g.gUOff, g.gUNbr, g.uSlot(u, t)).map(g.vOfSlot(_))),
      Vector.tabulate(g.nT, g.nV)((t, v) => slotList(g.gVOff, g.gVNbr, g.vSlot(v, t)).map(g.uOfSlot)))
  }
}

/** Reference construction for tests: the graph a set of labelled edges
  * should give, built from a `Set` of triples with plain `groupBy`/`sorted`
  * and no code shared with the builder.
  */
object GraphReference {
  def of(edges: Iterable[(Long, Long, Long)]): GraphFields = {
    val labelled = edges.toSet
    val uL = labelled.toSeq.map(_._1).distinct.sorted
    val vL = labelled.toSeq.map(_._2).distinct.sorted
    val tL = labelled.toSeq.map(_._3).distinct.sorted
    val e = labelled.map { case (u, v, t) => (uL.indexOf(u), vL.indexOf(v), tL.indexOf(t)) }
    val byU = e.groupBy(_._1); val byV = e.groupBy(_._2)
    val byTU = e.groupBy(x => (x._3, x._1)); val byTV = e.groupBy(x => (x._3, x._2))
    def sortedOf(s: Option[Set[(Int, Int, Int)]], f: ((Int, Int, Int)) => Int): Seq[Int] =
      s.getOrElse(Set.empty).toSeq.map(f).distinct.sorted
    val uAdj = uL.indices.map(u => sortedOf(byU.get(u), _._2))
    GraphFields(uL.size, vL.size, tL.size, uL, vL, tL,
      uAdj,
      uL.indices.map(u => uAdj(u).map(v => sortedOf(byU.get(u).map(_.filter(_._2 == v)), _._3))),
      vL.indices.map(v => sortedOf(byV.get(v), _._1)),
      tL.indices.map(t => uL.indices.map(u => sortedOf(byTU.get((t, u)), _._2))),
      tL.indices.map(t => vL.indices.map(v => sortedOf(byTV.get((t, v)), _._1))))
  }
}
