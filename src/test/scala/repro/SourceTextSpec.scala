package repro

import java.nio.file.{Files, Path, Paths}

import org.scalatest.funsuite.AnyFunSuite

import scala.jdk.CollectionConverters._
import scala.util.Using

/** Source files must stay plain text: a control byte in a string literal
  * (a NUL key separator, say) makes git treat the file as binary and hide
  * its diffs.
  */
class SourceTextSpec extends AnyFunSuite {

  private def scalaFiles(root: Path): Vector[Path] =
    Using.resource(Files.walk(root))(_.iterator.asScala.filter(_.toString.endsWith(".scala")).toVector)

  private def isControl(b: Byte): Boolean =
    (b >= 0 && b < 0x20 && b != '\t' && b != '\n' && b != '\r') || b == 0x7f

  test("Scala sources under src/, bench/ and jobs/ hold no control bytes but tab, LF and CR") {
    val roots = Seq("src", "bench", "jobs").map(Paths.get(_))
    assert(roots.forall(Files.isDirectory(_)), s"not the root of the checkout: ${Paths.get("").toAbsolutePath}")
    val files = roots.flatMap(scalaFiles)
    assert(files.nonEmpty)
    val bad = files.flatMap { f =>
      val bytes = Files.readAllBytes(f)
      bytes.indexWhere(isControl) match {
        case -1 => None
        case i  => Some(f"$f: byte 0x${bytes(i)}%02x at offset $i")
      }
    }
    assert(bad.isEmpty, bad.mkString("\n"))
  }
}
