package repro.graph

/** Merge-walk primitives over sorted int arrays (the adjacency encoding). */
object SortedOps {

  /** Intersection of ascending `a` with the ascending range `b[from, until)`
    * (a graph list), result sorted.
    */
  def intersect(a: Array[Int], b: Array[Int], from: Int, until: Int): Array[Int] = {
    val out = new Array[Int](math.min(a.length, until - from))
    var i = 0; var j = from; var k = 0
    while (i < a.length && j < until) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { out(k) = a(i); k += 1; i += 1; j += 1 }
    }
    java.util.Arrays.copyOf(out, k)
  }

  /** true iff sorted `a` ⊆ sorted `b`. */
  def subsetOf(a: Array[Int], b: Array[Int]): Boolean = {
    if (a.length > b.length) return false
    var i = 0; var j = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { i += 1; j += 1 }
      else if (a(i) > b(j)) j += 1
      else return false
    }
    i == a.length
  }
}
