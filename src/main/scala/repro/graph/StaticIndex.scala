package repro.graph

/** The static projection of a [[TemporalBipartiteGraph]], which the graph
  * does not store, as three flat CSR views read `nbr(off(k) until off(k + 1))`,
  * every list ascending: N(u) (`uOff`/`uNbr`), per static edge `i` its
  * timestamps T(u, v) (`tsOff`/`ts`, key i) for CheckFRE (Algorithm 3), and
  * N(v) (`vOff`/`vNbr`) for FilterV. FilterV builds one index per run, and
  * [[StaticIndex.apply]] is the only code that fills static views. Size in
  * `Int`s: nU + nV + 3·|E_static| + |E| + 3.
  */
final class StaticIndex private (val nT: Int,
                                 val uOff: Array[Int], val uNbr: Array[Int],
                                 val tsOff: Array[Int], val ts: Array[Int],
                                 val vOff: Array[Int], val vNbr: Array[Int])

object StaticIndex {

  /** `g`'s static views, read off its slots in O(|E| + nU + nV): the entries
    * of every Γ(v, t), listed in (v, t) order and sorted stably by u, are
    * the temporal edges in (u, v, t) order, and each run of one (u, v) is a
    * static edge.
    */
  def apply(g: TemporalBipartiteGraph): StaticIndex = {
    val nE = g.gVNbr.length
    val uOf = new Array[Int](g.uSlotT.length) // U-slot → u
    for (u <- 0 until g.nU) java.util.Arrays.fill(uOf, g.uSlotOff(u), g.uSlotOff(u + 1), u)
    val eU, eV, eT = new Array[Int](nE)
    for (j <- g.vSlotT.indices; i <- g.gVOff(j) until g.gVOff(j + 1)) {
      eU(i) = uOf(g.gVNbr(i)); eV(i) = g.vOfSlot(j); eT(i) = g.vSlotT(j)
    }
    val ord = TemporalBipartiteGraph.countingSort(Array.range(0, nE), g.nU, eU)._1
    // the position in ord of each static edge's first temporal edge
    val first = Array.range(0, nE).filter { r =>
      r == 0 || eU(ord(r)) != eU(ord(r - 1)) || eV(ord(r)) != eV(ord(r - 1))
    }
    val sU = first.map(r => eU(ord(r))); val sV = first.map(r => eV(ord(r)))
    val uOff = TemporalBipartiteGraph.countingSort(Array.range(0, sU.length), g.nU, sU)._2
    // static edges stably by v: each v's u come out ascending
    val (byV, vOff) = TemporalBipartiteGraph.countingSort(Array.range(0, sU.length), g.nV, sV)
    new StaticIndex(g.nT, uOff, sV, first :+ nE, ord.map(eT), vOff, byV.map(sU))
  }
}
