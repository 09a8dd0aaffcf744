package repro.graph

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.Assertions.assert

import repro.core.Params

/** Generators and the fixed-seed runner shared by the ScalaCheck property
  * suites.
  */
object GraphGen {

  /** Runs `prop` for `tests` successful cases from a fixed seed; fails with
    * ScalaCheck's report otherwise.
    */
  def check(prop: Prop, tests: Int = 200): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(20240817L), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  /** Up to `maxEdges` internal-id edges in a box `nU × nV × nT` (nU ≤ 5,
    * nV ≤ 6, nT ≤ 5), with a prefix of the edges repeated; returns the box
    * and the edges.
    */
  def ids(maxEdges: Int): Gen[((Int, Int, Int), Seq[(Int, Int, Int)])] = for {
    nU <- Gen.choose(1, 5); nV <- Gen.choose(1, 6); nT <- Gen.choose(1, 5)
    m <- Gen.choose(0, maxEdges)
    es <- Gen.listOfN(m, for {
      u <- Gen.choose(0, nU - 1); v <- Gen.choose(0, nV - 1); t <- Gen.choose(0, nT - 1)
    } yield (u, v, t))
    dup <- Gen.choose(0, m)
  } yield ((nU, nV, nT), es ++ es.take(dup))

  /** `ids(120)` fed raw (duplicates included) to the builder, with the
    * timestamps spread `gap` apart so |T| reaches 70 with most snapshots
    * empty; ids of the box without an edge stay as isolated vertices.
    */
  val graphs: Gen[TemporalBipartiteGraph] = for {
    idEdges <- ids(120)
    gap <- Gen.choose(1, 14)
  } yield {
    val ((nU, nV, nT), es) = idEdges
    def labels(n: Int) = Array.tabulate(n)(_.toLong)
    TemporalBipartiteGraph.fromInternal(es.map(_._1).toArray, es.map(_._2).toArray, es.map(_._3 * gap).toArray,
      labels(nU), labels(nV), labels(nT * gap))
  }

  /** `ids(40)` as labelled edges; labels are spread out and partly negative. */
  val edges: Gen[Seq[(Long, Long, Long)]] =
    ids(40).map(_._2.map { case (u, v, t) => (7L * u - 10, -3L * v, 5L * t - 1000) })

  /** τ_U, τ_V and λ each in `1 to max`. */
  def params(max: Int): Gen[Params] = for {
    tauU <- Gen.choose(1, max); tauV <- Gen.choose(1, max); lambda <- Gen.choose(1, max)
  } yield Params(tauU, tauV, lambda)
}
