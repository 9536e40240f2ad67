package org.apache.spark

/** Access to Spark's listener bus, which is package-private. The traced
  * run drains it before reading per-span counts: listener events are
  * delivered asynchronously, so a count read right after an action can
  * miss that action's last jobs and tasks.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
