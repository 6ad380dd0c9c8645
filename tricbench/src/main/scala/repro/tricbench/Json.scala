package repro.tricbench

/** Minimal JSON writer for the benchmark's result lines: numbers, strings,
  * booleans, sequences and nested objects, in insertion order.
  */
object Json {

  def obj(fields: (String, Any)*): String =
    fields.map { case (k, v) => quote(k) + ":" + value(v) }.mkString("{", ",", "}")

  def value(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int              => n.toString
    case n: Long             => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + value(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]     => xs.map(value).mkString("[", ",", "]")
    case Raw(json)           => json
    case other               => quote(other.toString)
  }

  /** Already-serialised JSON, embedded as is. */
  final case class Raw(json: String)

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'           => sb ++= "\\\""
      case '\\'          => sb ++= "\\\\"
      case '\n'          => sb ++= "\\n"
      case c if c < ' '  => sb ++= f"\\u${c.toInt}%04x"
      case c             => sb += c
    }
    sb += '"'
    sb.toString
  }
}
