package repro.tables

/** Aligned plain-text table rendering. Each harness returns a
  * [[TableOutput]]; the runner ([[Tables]]) prints `render` and fails on
  * any false `checks`.
  */
final case class TableOutput(
    title: String,
    header: Vector[String],
    rows: Vector[Vector[String]],
    /** Named boolean assertions ("shape checks") derived from the rows —
      * the runner exits 1 if any is false.
      */
    checks: Vector[(String, Boolean)],
    notes: Vector[String] = Vector.empty,
) {
  def render: String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    // Every column but the last is padded, so that no line ends in spaces.
    def fmt(r: Vector[String]) = (r.init.lazyZip(widths).map(_.padTo(_, ' ')) :+ r.last).mkString("  ")
    val sep = widths.map("-" * _).mkString("  ")
    (Vector(s"== $title ==", fmt(header), sep) ++ rows.map(fmt) ++
      notes.map("note: " + _)).mkString("\n")
  }
}

object TableFormat {
  def pct(x: Double): String = f"${100 * x}%.1f%%"
  def f2(x: Double): String  = f"$x%.2f"
  def words(x: Long): String = if (x >= 1000000) f"${x / 1e6}%.2fM" else if (x >= 1000) f"${x / 1e3}%.1fk" else x.toString
}
