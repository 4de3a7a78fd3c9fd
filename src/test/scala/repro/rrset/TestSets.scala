package repro.rrset

/** Appends for hand-built collections in tests. */
object TestSets {

  /** Append one RR set holding `members` (distinct) through `addPacked`. */
  def append(c: RRCollection, tag: Int, members: Array[Int]): Unit =
    c.addPacked(Array(tag.toByte), Array(members.length), members)
}
