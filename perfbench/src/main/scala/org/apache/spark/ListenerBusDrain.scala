package org.apache.spark

/** Listener events reach a `SparkListener` asynchronously. The traced run
  * reads job, stage and task figures right after an action returns, so it
  * first waits for the listener bus to deliver everything already posted.
  * `listenerBus` is package-private to Spark, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
