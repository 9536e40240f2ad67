package repro

import java.io.File
import scala.io.Source
import org.scalatest.funsuite.AnyFunSuite

/** Breeze stays behind `repro.ml.Linear`: the first Breeze vector in a JVM
  * loads about 1,700 classes (over a second), so the driver-side matrix
  * path (collect, forest, injection, ℓ2,1 ranking) runs on plain arrays.
  */
class BreezeBoundarySpec extends AnyFunSuite {

  private def scalaFiles(dir: File): Seq[File] =
    Option(dir.listFiles).toSeq.flatten.flatMap { f =>
      if (f.isDirectory) scalaFiles(f) else if (f.getName.endsWith(".scala")) Seq(f) else Nil
    }

  test("no main source file but repro/ml/Linear.scala names the breeze package") {
    val files = Seq("src/main/scala", "jobs").flatMap(d => scalaFiles(new File(d)))
    assert(files.exists(_.getPath == "src/main/scala/repro/ml/Linear.scala"),
           s"no main sources under ${new File(".").getAbsolutePath}")
    val users = files.filter { f =>
      val src = Source.fromFile(f, "UTF-8")
      try src.mkString.contains("breeze") finally src.close()
    }.map(_.getPath)
    assert(users == Seq("src/main/scala/repro/ml/Linear.scala"), s"breeze outside Linear: $users")
  }
}
