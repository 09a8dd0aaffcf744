package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class SortedOpsSpec extends AnyFunSuite {

  /** `a` ∩ all of `b`. */
  private def intersect(a: Array[Int], b: Array[Int]): Array[Int] = SortedOps.intersect(a, b, 0, b.length)

  test("intersect of disjoint arrays is empty") {
    assert(intersect(Array(1, 3, 5), Array(2, 4, 6)).isEmpty)
  }

  test("intersect with empty array is empty") {
    assert(intersect(Array.empty[Int], Array(1, 2)).isEmpty)
    assert(intersect(Array(1, 2), Array.empty[Int]).isEmpty)
  }

  test("intersect keeps common elements sorted") {
    assert(intersect(Array(1, 2, 5, 9), Array(2, 5, 7, 9)).toSeq == Seq(2, 5, 9))
  }

  test("intersect of identical arrays is identity") {
    val a = Array(1, 4, 6)
    assert(intersect(a, a).toSeq == a.toSeq)
  }

  test("intersect reads only the range b[from, until)") {
    val b = Array(1, 2, 5, 9)
    assert(SortedOps.intersect(Array(1, 2, 5, 9), b, 1, 3).toSeq == Seq(2, 5))
    assert(SortedOps.intersect(Array(1, 9), b, 2, 2).isEmpty)
  }

  test("subsetOf: empty is subset of anything") {
    assert(SortedOps.subsetOf(Array.empty[Int], Array(1, 2)))
    assert(SortedOps.subsetOf(Array.empty[Int], Array.empty[Int]))
  }

  test("subsetOf: proper subset / non-subset") {
    assert(SortedOps.subsetOf(Array(2, 5), Array(1, 2, 5, 9)))
    assert(!SortedOps.subsetOf(Array(2, 6), Array(1, 2, 5, 9)))
    assert(!SortedOps.subsetOf(Array(1, 2, 3), Array(1, 2)))
  }

  for (seed <- 0 until 20) {
    test(s"randomized agreement with Set semantics (seed $seed)") {
      val rng = new scala.util.Random(seed)
      val a = Array.fill(rng.nextInt(30))(rng.nextInt(40)).distinct.sorted
      val b = Array.fill(rng.nextInt(30))(rng.nextInt(40)).distinct.sorted
      assert(intersect(a, b).toSet == a.toSet.intersect(b.toSet))
      assert(SortedOps.subsetOf(a, b) == a.toSet.subsetOf(b.toSet))
    }
  }
}
