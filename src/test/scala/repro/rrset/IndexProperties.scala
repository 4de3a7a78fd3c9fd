package repro.rrset

import org.scalacheck.{Gen, Prop, Properties}

/** `rebuildIndex` against a naive reference: for every (tag, node), the
  * ascending ids of the sets that carry the tag and contain the node.
  */
object IndexProperties extends Properties("RRCollection index") {

  /** Does every index list of `c` equal the naive per-(tag, node) list? */
  def matchesNaive(c: RRCollection): Boolean = {
    val ref = Array.fill(c.h, c.n)(Array.newBuilder[Int])
    for (sid <- 0 until c.numSets; u <- c.setMembers(sid)) ref(c.tagOf(sid))(u) += sid
    (0 until c.h).forall(i => (0 until c.n).forall(u => c.setsContaining(u, i).sameElements(ref(i)(u).result())))
  }

  /** A batch of sets with distinct members. */
  private final case class Batch(tags: Array[Byte], sets: Array[Array[Int]])

  private def genBatch(h: Int, n: Int): Gen[Batch] =
    Gen.chooseNum(1, 8).flatMap { k =>
      Gen.listOfN(k, for {
        tag <- Gen.chooseNum(0, h - 1)
        ms <- Gen.nonEmptyListOf(Gen.chooseNum(0, n - 1))
      } yield (tag.toByte, ms.distinct.toArray))
    }.map(sets => Batch(sets.map(_._1).toArray, sets.map(_._2).toArray))

  private val genCollection: Gen[RRCollection] = for {
    h <- Gen.chooseNum(1, 3)
    n <- Gen.chooseNum(1, 12)
    batches <- Gen.listOf(genBatch(h, n))
  } yield {
    val c = new RRCollection(n, Array.fill(h)(1.0))
    batches.foreach(b => c.addPacked(b.tags, b.sets.map(_.length), b.sets.flatten))
    c.rebuildIndex()
    c
  }

  property("rebuildIndex equals the per-(tag, node) ascending-sid reference") =
    Prop.forAll(genCollection)(matchesNaive)
}
