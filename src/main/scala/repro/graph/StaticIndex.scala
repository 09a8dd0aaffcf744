package repro.graph

/** The static projection of a [[TemporalBipartiteGraph]], which the graph
  * does not store, as three flat CSR views read `nbr(off(k) until off(k + 1))`,
  * every list ascending: N(u) (`uOff`/`uNbr`), per static edge `i` its
  * timestamps T(u, v) (`tsOff`/`ts`, key i) for CheckFRE (Algorithm 3), and
  * N(v) (`vOff`/`vNbr`) for FilterV. FilterV builds one index per run, and
  * [[StaticIndex.apply]] is the only code that fills static views. N(u) and
  * N(v) are built with the index; T(u, v) is built on first use, since only
  * CheckFRE reads it. Size in `Int`s: nU + nV + 2·|E_static| + 2, and
  * |E_static| + |E| + 1 more once T(u, v) is read.
  */
final class StaticIndex private (g: TemporalBipartiteGraph,
                                 val uOff: Array[Int], val uNbr: Array[Int],
                                 val vOff: Array[Int], val vNbr: Array[Int]) {
  val nT: Int = g.nT

  lazy val tsOff: Array[Int] = {
    val off = new Array[Int](uNbr.length + 1)
    eachTemporalEdge((i, _) => off(i + 1) += 1)
    for (i <- uNbr.indices) off(i + 1) += off(i)
    off
  }

  lazy val ts: Array[Int] = {
    val out = new Array[Int](tsOff(uNbr.length))
    val next = java.util.Arrays.copyOf(tsOff, uNbr.length)
    eachTemporalEdge { (i, t) => out(next(i)) = t; next(i) += 1 }
    out
  }

  /** Calls `f(i, t)` for every temporal edge, i its static edge, in (u, t, v)
    * order, so each static edge's t ascend: u's slots ascend in t, and
    * `edgeOf` maps each v of N(u) to its static edge.
    */
  private def eachTemporalEdge(f: (Int, Int) => Unit): Unit = {
    val edgeOf = new Array[Int](g.nV)
    for (u <- 0 until g.nU) {
      for (i <- uOff(u) until uOff(u + 1)) edgeOf(uNbr(i)) = i
      for (k <- g.uSlotOff(u) until g.uSlotOff(u + 1); j <- g.gUOff(k) until g.gUOff(k + 1))
        f(edgeOf(g.vOfSlot(g.gUNbr(j))), g.uSlotT(k))
    }
  }
}

object StaticIndex {

  /** `g`'s N(u) and N(v), read off its slots in O(|E| + nU + nV): the
    * entries of every Γ(v, t), listed in (v, t) order and sorted stably by u,
    * are the temporal edges in (u, v, t) order, and each run of one (u, v) is
    * a static edge.
    */
  def apply(g: TemporalBipartiteGraph): StaticIndex = {
    val nE = g.gVNbr.length
    val uOf = new Array[Int](g.uSlotT.length) // U-slot → u
    for (u <- 0 until g.nU) java.util.Arrays.fill(uOf, g.uSlotOff(u), g.uSlotOff(u + 1), u)
    val eU, eV = new Array[Int](nE)
    for (j <- g.vSlotT.indices; i <- g.gVOff(j) until g.gVOff(j + 1)) {
      eU(i) = uOf(g.gVNbr(i)); eV(i) = g.vOfSlot(j)
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
    new StaticIndex(g, uOff, sV, vOff, byV.map(sU))
  }
}
