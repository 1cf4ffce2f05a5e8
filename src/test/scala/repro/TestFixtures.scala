package repro

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{Scenario, Scenarios}

/** Trained-model fixtures shared across test suites (one JVM per test run,
  * suites sequential) so each scenario is generated, and its EmbDI pipeline
  * (graph, walks, training) run, once.
  */
object TestFixtures {

  private def spark: SparkSession = SparkSpec.shared

  /** Tiny scenario used by every end-to-end suite. */
  lazy val tiny: Scenario = Scenarios.generate(spark, Scenarios.tiny)

  /** The tiny scenario's two tables, each read once. */
  lazy val tinyRelations: Seq[Relation] = Seq(tiny.d1, tiny.d2).map(Relation.read)

  /** Default test-scale EmbDI configuration: small dims, modest corpus. */
  def testConfig(strategy: Tokenization.Strategy = Tokenization.Overlap(Set.empty)): EmbDI.Config =
    EmbDI.Config(
      strategy = strategy,
      walk = RandomWalker.WalkConfig(walkLength = 20, seed = 5L),
      w2v = EmbeddingTrainer.W2VConfig(dim = 32, minCount = 1, maxIter = 2, seed = 5L),
      corpusFactor = 300L,
    )

  /** EmbDI trained once on the tiny scenario (Overlap tokenization). */
  lazy val tinyEmbDI: EmbDI.Result = EmbDI.run(tinyRelations, testConfig())

  /** Shared whole-cell values of the tiny scenario. */
  lazy val tinyShared: Set[String] =
    Tokenization.sharedValues(tinyRelations(0), tinyRelations(1))
}
