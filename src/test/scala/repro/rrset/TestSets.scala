package repro.rrset

/** Hand-built collections for tests. */
object TestSets {

  /** `sets`, each a tag and its distinct members, packed in order into one
    * batch for [[RRCollection.append]].
    */
  def batch(sets: Seq[(Int, Seq[Int])]): (Array[Byte], Array[Int], Array[Int]) =
    (sets.map(_._1.toByte).toArray, sets.map(_._2.length).toArray, sets.flatMap(_._2).toArray)

  /** A collection over `n` nodes holding `sets` in order, built by one append. */
  def collection(n: Int, cpe: Array[Double], sets: Seq[(Int, Seq[Int])]): RRCollection = {
    val c = new RRCollection(n, cpe)
    c.append(Seq(batch(sets)))
    c
  }
}
