package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Raw measurements of one benchmark run, written as JSON for `run.py`,
  * which turns them into the reported metrics.
  */
final class Result {
  val config: mutable.LinkedHashMap[String, Any]               = mutable.LinkedHashMap.empty
  val setupS: mutable.ArrayBuffer[Double]                      = mutable.ArrayBuffer.empty
  val jobS: mutable.ArrayBuffer[Double]                        = mutable.ArrayBuffer.empty
  val samples: mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]] = mutable.LinkedHashMap.empty
  val layers: mutable.LinkedHashMap[String, Double]            = mutable.LinkedHashMap.empty
  /** One fingerprint per repetition of the job; all must be equal. */
  val fingerprints: mutable.ArrayBuffer[Map[String, Any]]      = mutable.ArrayBuffer.empty
  val failures: mutable.ArrayBuffer[String]                    = mutable.ArrayBuffer.empty
  var attempted: Long                                          = 0L
  var heapPeakMb: Double                                       = 0.0

  def sample(name: String, v: Double): Unit = samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  def toJson: String = Json.write(Map(
    "config" -> config, "setup_s" -> setupS, "job_s" -> jobS, "samples" -> samples,
    "layers" -> layers, "fingerprints" -> fingerprints, "failures" -> failures,
    "attempted" -> attempted, "heap_peak_mb" -> heapPeakMb,
  ))
}

/** Heap and GC readings of this JVM. */
object Jvm {
  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  def resetHeapPeaks(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum over the heap pools of their peak use since the last reset. */
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1e6

  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum / 1e3

  /** Wall seconds since this JVM started. */
  def secondsSinceStart: Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
}

/** Just enough JSON writing for [[Result]]. */
object Json {
  def write(v: Any): String = v match {
    case null                   => "null"
    case s: String              => quote(s)
    case b: Boolean             => b.toString
    case d: Double              => if (d.isNaN || d.isInfinity) "null" else d.toString
    case n: Int                 => n.toString
    case n: Long                => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + write(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]        => xs.map(write).mkString("[", ",", "]")
    case other                  => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'            => b ++= "\\\""
      case '\\'           => b ++= "\\\\"
      case c if c < ' '   => b ++= f"\\u${c.toInt}%04x"
      case c              => b += c
    }
    (b += '"').toString
  }
}
