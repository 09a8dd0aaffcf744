package repro.perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

import org.apache.spark.ListenerBusDrain
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One timed interval at a layer boundary. `parent` is the id of the
  * enclosing span (-1 at the top), `query` the id shared by the spans of one
  * query (-1 outside any query). `allocBytes` is what the calling thread
  * allocated inside the span.
  */
final case class Span(id: Int, name: String, query: Int, parent: Int,
                      startNs: Long, endNs: Long, allocBytes: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for the traced run. Spans nest on the calling
  * thread; nothing is written until [[write]] at the end of the run.
  */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def span[A](name: String, query: Int)(body: => A): A = {
    val id = spans.length
    spans += null
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val a0 = Tracer.allocatedBytes()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      val a1 = Tracer.allocatedBytes()
      open = open.tail
      spans(id) = Span(id, name, query, parent, t0, t1, a1 - a0)
    }
  }

  def all: Seq[Span] = spans.toSeq

  def named(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq

  /** Duration of the span `name` of query `q`. */
  def durNs(q: Int, name: String): Long = spans.find(s => s.query == q && s.name == name).get.durNs

  /** Duration minus the part covered by direct children (children of one
    * span run one after another on its thread, so they never overlap).
    */
  def selfNs(s: Span): Long =
    s.durNs - spans.iterator.filter(_.parent == s.id).map(_.durNs).sum

  /** Median self time (ms) of the spans with this name. */
  def selfMs(name: String): Double = Stats.median(named(name).map(selfNs(_) / 1e6))

  /** Median allocation (MB) of the spans with this name. */
  def allocMb(name: String): Double = Stats.median(named(name).map(_.allocBytes / 1e6))

  /** One JSON object per span, with its self time. */
  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val lines = spans.iterator.map { s =>
      s"""{"id":${s.id},"name":"${s.name}","query":${s.query},"parent":${s.parent},""" +
      s""""start_ns":${s.startNs},"end_ns":${s.endNs},"self_ns":${selfNs(s)},"alloc_bytes":${s.allocBytes}}"""
    }
    java.nio.file.Files.write(path, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}

object Tracer {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes
}

/** Records Spark jobs, stages and task durations while registered. The
  * benchmark adds it for the traced run and removes it afterwards.
  */
final class JobListener extends SparkListener {
  import JobListener.Stage

  private val jobIds = mutable.ArrayBuffer.empty[Int]
  private val stages = mutable.ArrayBuffer.empty[Stage]
  private val taskMs = mutable.Map.empty[Int, mutable.ArrayBuffer[Long]]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobIds += e.jobId }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    stages += Stage(i.stageId, i.numTasks, i.submissionTime.getOrElse(0L), i.completionTime.getOrElse(0L))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    taskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
  }

  /** Position to measure from: (jobs seen, stages seen). */
  def mark(sc: SparkContext): (Int, Int) = { ListenerBusDrain(sc); synchronized((jobIds.length, stages.length)) }

  /** Jobs started since `from`. */
  def jobsSince(sc: SparkContext, from: (Int, Int)): Int = { ListenerBusDrain(sc); synchronized(jobIds.length - from._1) }

  /** Stages completed since `from`, in completion order. */
  def stagesSince(sc: SparkContext, from: (Int, Int)): Seq[Stage] = {
    ListenerBusDrain(sc)
    synchronized(stages.drop(from._2).toSeq)
  }

  def taskDurationsMs(stageId: Int): Seq[Long] = synchronized(taskMs.get(stageId).map(_.toSeq).getOrElse(Nil))
}

object JobListener {
  final case class Stage(id: Int, numTasks: Int, submittedMs: Long, completedMs: Long)
}
