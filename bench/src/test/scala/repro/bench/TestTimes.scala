package repro.bench

import org.scalatest.{Outcome, TestSuite, TestSuiteMixin}

/** Prints each test's wall time as `[time] <suite> / <test> <s>` to stdout
  * only, so the time of a `sbt bench/test` run can be split by suite while
  * `bench/results` stays comparable byte for byte. */
trait TestTimes extends TestSuiteMixin { this: TestSuite =>
  abstract override def withFixture(test: NoArgTest): Outcome = {
    val t0 = System.nanoTime()
    try super.withFixture(test)
    finally println(f"[time] $suiteName / ${test.name} ${(System.nanoTime() - t0) / 1e9}%.1f")
  }
}
