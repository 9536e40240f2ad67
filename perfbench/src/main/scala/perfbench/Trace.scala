package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Per-span Spark work: jobs started, tasks ended and task executor time. */
final case class SparkWork(jobs: Int, tasks: Int, busyMs: Long) {
  def +(o: SparkWork): SparkWork = SparkWork(jobs + o.jobs, tasks + o.tasks, busyMs + o.busyMs)
}
object SparkWork { val Zero: SparkWork = SparkWork(0, 0, 0L) }

/** Attributes Spark jobs to the benchmark's spans.
  *
  * Stack frames cannot do this: Spark SQL runs actions on its own
  * execution threads, so the caller's frames are not in the stage details.
  * Local properties are copied onto those threads, so the span path that
  * [[Tracer.span]] stores in [[SpanListener.Key]] arrives with every
  * `SparkListenerJobStart`. Tasks are attributed through their stage.
  */
final class SpanListener extends SparkListener {
  private val stageSpan = mutable.Map.empty[Int, String]
  private val work = mutable.Map.empty[String, SparkWork]
  private var handlerNanos = 0L

  private def add(span: String, w: SparkWork): Unit =
    work(span) = work.getOrElse(span, SparkWork.Zero) + w

  private def timed(body: => Unit): Unit = synchronized {
    val t0 = System.nanoTime()
    body
    handlerNanos += System.nanoTime() - t0
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = timed {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanListener.Key)))
      .getOrElse(SpanListener.Outside)
    add(span, SparkWork(1, 0, 0L))
    // A stage shared by several jobs runs its tasks once, for the first.
    e.stageIds.foreach(id => if (!stageSpan.contains(id)) stageSpan(id) = span)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = timed {
    val busy = Option(e.taskMetrics).map(_.executorRunTime).getOrElse(0L)
    add(stageSpan.getOrElse(e.stageId, SpanListener.Outside), SparkWork(0, 1, busy))
  }

  /** Work per span path, and seconds spent in this listener's handlers,
    * since the last call, after draining the bus.
    */
  def take(sc: SparkContext): (Map[String, SparkWork], Double) = {
    PerfbenchBus.drain(sc)
    synchronized {
      val out = (work.toMap, handlerNanos / 1e9)
      work.clear(); handlerNanos = 0L
      out
    }
  }
}

object SpanListener {
  val Key = "perfbench.span"
  val Outside = "(outside)"
}

/** Nested spans around calls into the program's layers.
  *
  * A span path is its ancestors' names and its own joined by `/`, so the
  * time and Spark work of a layer include those of its children. Wall
  * and process CPU time are always recorded (the end-to-end metrics are
  * read from them); Spark work only when a [[SpanListener]] is attached,
  * in traced runs.
  */
final class Tracer(sc: SparkContext, listener: Option[SpanListener]) {
  private var stack = List.empty[String]
  private val wall = mutable.LinkedHashMap.empty[String, Double]
  private val cpu = mutable.LinkedHashMap.empty[String, Double]

  def span[T](name: String)(body: => T): T = {
    val path = (name :: stack).reverse.mkString("/")
    val prev = sc.getLocalProperty(SpanListener.Key)
    stack = name :: stack
    sc.setLocalProperty(SpanListener.Key, path)
    val (t0, c0) = (System.nanoTime(), Tracer.processCpuNanos())
    try body
    finally {
      wall(path) = wall.getOrElse(path, 0.0) + (System.nanoTime() - t0) / 1e9
      cpu(path) = cpu.getOrElse(path, 0.0) + (Tracer.processCpuNanos() - c0) / 1e9
      stack = stack.tail
      sc.setLocalProperty(SpanListener.Key, prev)
    }
  }

  /** Wall seconds, process CPU seconds and Spark work per span path, and
    * listener handler seconds, since the last call.
    */
  def take(): Tracer.Taken = {
    val (w, c) = (wall.toMap, cpu.toMap)
    wall.clear(); cpu.clear()
    val (work, handlerS) = listener.map(_.take(sc)).getOrElse((Map.empty[String, SparkWork], 0.0))
    Tracer.Taken(w, c, work, handlerS)
  }
}

object Tracer {
  final case class Taken(wall: Map[String, Double], cpu: Map[String, Double],
                         work: Map[String, SparkWork], listenerS: Double)

  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time of every thread of this JVM: Spark tasks, driver, JIT, GC. */
  def processCpuNanos(): Long = os.getProcessCpuTime

  /** Seconds spent in spans whose name is `name`, wherever they nest. */
  def seconds(wall: Map[String, Double], name: String): Double =
    wall.collect { case (p, s) if p.split('/').last == name => s }.sum

  /** Spark work in `name` spans and everything nested inside them. */
  def work(byPath: Map[String, SparkWork], name: String): SparkWork =
    byPath.collect { case (p, w) if p.split('/').contains(name) => w }
      .foldLeft(SparkWork.Zero)(_ + _)
}

/** Highest heap occupancy seen right after a garbage collection, summed
  * over heap pools, from the JVM's GC notifications.
  */
final class HeapWatch {
  private var peak = 0L

  private val onGc = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        synchronized { if (used > peak) peak = used }
      }
  }

  private val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(onGc, null, null)
    case _                      =>
  }

  /** Peak after-GC heap in MB since the last reset. */
  def peakMb: Double = synchronized(peak / (1024.0 * 1024.0))
  def reset(): Unit = synchronized { peak = 0L }
}
