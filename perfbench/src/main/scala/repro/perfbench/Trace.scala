package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spans recorded by the benchmark around its calls into the program's
  * layers. Each span also becomes the Spark job group of the jobs it
  * submits, so [[StageStats]] can attribute shuffle bytes and task times to
  * it. When disabled, `apply` only evaluates its body.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  import Tracer.Span

  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var current = -1

  val stages: Option[StageStats] =
    if (enabled) { val s = new StageStats; sc.addSparkListener(s); Some(s) } else None

  def apply[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val idx    = spans.size
      val parent = current
      spans += Span(name, parent, System.nanoTime())
      current = idx
      sc.setJobGroup(name, name, interruptOnCancel = false)
      try body
      finally {
        spans(idx).endNs = System.nanoTime()
        current = parent
        if (parent >= 0) sc.setJobGroup(spans(parent).name, spans(parent).name, interruptOnCancel = false)
        else sc.clearJobGroup()
      }
    }

  def seconds(name: String): Double = spans.iterator.filter(_.name == name).map(_.seconds).sum

  /** Span time minus the time of its direct child spans. */
  def selfSeconds(name: String): Double =
    spans.indices.iterator.filter(spans(_).name == name).map { i =>
      spans(i).seconds - spans.iterator.filter(_.parent == i).map(_.seconds).sum
    }.sum

  /** Names of `name`'s spans and of every span below them. */
  def subtree(name: String): Set[String] = {
    val roots = spans.indices.filter(spans(_).name == name).toSet
    def under(i: Int): Boolean = i >= 0 && (roots(i) || under(spans(i).parent))
    spans.indices.filter(under).map(spans(_).name).toSet
  }

  /** Seconds covered by the top-level spans opened after `sinceIdx`. */
  def topLevelSecondsSince(sinceIdx: Int): Double =
    spans.iterator.drop(sinceIdx).filter(_.parent == -1).map(_.seconds).sum
}

object Tracer {
  final case class Span(name: String, parent: Int, startNs: Long, var endNs: Long = -1L) {
    def seconds: Double = (endNs - startNs) / 1e9
  }
}

/** Per-job-group shuffle bytes and task durations, gathered by a listener
  * so that nothing inside the program needs to change.
  */
final class StageStats extends SparkListener {
  private val groupOfStage = new java.util.concurrent.ConcurrentHashMap[Int, String]()
  private val shuffleBytes = new java.util.concurrent.ConcurrentHashMap[String, java.lang.Long]()
  private val taskMs       = new java.util.concurrent.ConcurrentHashMap[Int, java.util.concurrent.ConcurrentLinkedQueue[java.lang.Long]]()

  override def onJobStart(js: SparkListenerJobStart): Unit = {
    val group = Option(js.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    group.foreach(g => js.stageIds.foreach(id => groupOfStage.put(id, g)))
  }

  override def onTaskEnd(te: SparkListenerTaskEnd): Unit = {
    val g = groupOfStage.get(te.stageId)
    if (g != null && te.taskMetrics != null) {
      shuffleBytes.merge(g, te.taskMetrics.shuffleWriteMetrics.bytesWritten, (a, b) => a + b)
      taskMs.computeIfAbsent(te.stageId, _ => new java.util.concurrent.ConcurrentLinkedQueue())
        .add(te.taskInfo.duration)
    }
  }

  def shuffleMb(groups: Set[String]): Double =
    groups.iterator.map(g => Option(shuffleBytes.get(g)).map(_.longValue).getOrElse(0L)).sum / 1e6

  /** Max ÷ mean task time of the busiest stage (most summed task time) run
    * by `groups`; 1.0 means perfectly even tasks.
    */
  def taskSkew(groups: Set[String]): Double = {
    val stages = taskMs.asScala.collect {
      case (id, ts) if groups(groupOfStage.get(id)) && ts.size > 1 => ts.asScala.map(_.toLong).toVector
    }
    if (stages.isEmpty) 1.0
    else {
      val busiest = stages.maxBy(_.sum)
      val mean    = busiest.sum.toDouble / busiest.size
      if (mean <= 0) 1.0 else busiest.max / mean
    }
  }
}
