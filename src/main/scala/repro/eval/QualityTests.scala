package repro.eval

import org.apache.spark.sql.DataFrame
import repro.core.{EmbeddingModel, Relation, Tokenization}

import scala.util.Random

/** The §7.1 embedding-quality tests. Each test is a set of tokens plus one
  * intruder; a model passes if gensim-style `doesnt_match` singles out the
  * intruder.
  *
  *  - MatchAttribute (MA): 4 tokens of one attribute + 1 from another.
  *  - MatchRow (MR): the tokens of one row, one of them swapped for a token
  *    of a different row.
  *  - MatchConcept (MC): for a 1:N attribute pair (maker → title), 3 tokens
  *    of titles sharing a maker + 1 title token of a different maker.
  */
object QualityTests {

  final case class QTest(kind: String, tokens: Seq[String], intruder: String)

  /** Token domains per column and token lists per row for one dataset,
    * under one tokenization strategy. Driver-side (bench-scale inputs). */
  final case class Tokenized(
      columnDomains: Map[String, IndexedSeq[String]],
      rowTokens: IndexedSeq[IndexedSeq[String]],
      /** the relation itself, whose normalized cells MC groups rows by */
      relation: Relation,
  )

  def tokenize(rel: Relation, strategy: Tokenization.Strategy): Tokenized = {
    val rowToks = rel.cells.map(_.toIndexedSeq.flatMap(Tokenization.tokens(_, strategy)).distinct)
      .toIndexedSeq
    Tokenized(Tokenization.columnTokens(rel, strategy).toMap, rowToks, rel)
  }

  /** [[tokenize]] of a dataset, read once. */
  def tokenize(df: DataFrame, strategy: Tokenization.Strategy): Tokenized =
    tokenize(Relation.read(df), strategy)

  private def sampleDistinct(rng: Random, pool: IndexedSeq[String], n: Int,
                             not: Set[String] = Set.empty): Option[Seq[String]] = {
    val avail = pool.filterNot(not)
    if (avail.size < n) None
    else {
      val picked = scala.collection.mutable.LinkedHashSet.empty[String]
      var guard = 0
      while (picked.size < n && guard < 50 * n) {
        picked += avail(rng.nextInt(avail.size)); guard += 1
      }
      if (picked.size == n) Some(picked.toSeq) else None
    }
  }

  /** MA tests over the union of tokenized datasets. */
  def matchAttribute(data: Seq[Tokenized], n: Int, seed: Long): Seq[QTest] = {
    val rng = new Random(seed)
    val cols = data.flatMap(t => t.columnDomains.toSeq.map { case (c, d) => (c, d) })
      .filter(_._2.size >= 8)
    if (cols.size < 2) return Seq.empty
    (0 until n * 3).flatMap { _ =>
      val (c1, d1) = cols(rng.nextInt(cols.size))
      val (c2, d2) = cols(rng.nextInt(cols.size))
      if (c1 == c2) None
      else for {
        four <- sampleDistinct(rng, d1, 4)
        one  <- sampleDistinct(rng, d2, 1, not = d1.toSet ++ four)
      } yield QTest("MA", four, one.head)
    }.take(n)
  }

  /** MR tests: one row's tokens with one token swapped in from another row. */
  def matchRow(data: Seq[Tokenized], n: Int, seed: Long): Seq[QTest] = {
    val rng = new Random(seed)
    val rows = data.flatMap(_.rowTokens).filter(_.size >= 4)
    if (rows.size < 2) return Seq.empty
    (0 until n * 3).flatMap { _ =>
      val r1 = rows(rng.nextInt(rows.size))
      val r2 = rows(rng.nextInt(rows.size))
      val intruders = r2.filterNot(r1.toSet)
      if (intruders.isEmpty) None
      else {
        val keep = rng.shuffle(r1).take(4)
        Some(QTest("MR", keep, intruders(rng.nextInt(intruders.size))))
      }
    }.take(n)
  }

  /** MC tests for a 1:N pair (oneCol → manyCol), e.g. maker → title: three
    * `manyCol` tokens of rows sharing a `oneCol` value, plus one `manyCol`
    * token from outside that group. */
  def matchConcept(data: Seq[Tokenized], oneCols: Set[String], manyCols: Set[String],
                   strategy: Tokenization.Strategy, n: Int, seed: Long): Seq[QTest] = {
    val rng = new Random(seed)
    // group rows by their oneCol value, per dataset
    val groups: Seq[(String, IndexedSeq[String])] = data.flatMap { t =>
      val rel = t.relation
      // A row's cell in the first of `cols` (in set order) it holds one in.
      def firstCell(cols: Set[String]): Array[String] => Option[String] = {
        val js = cols.toSeq.map(rel.columns.indexOf).filter(_ >= 0)
        row => js.find(row(_) != null).map(row)
      }
      val (oneCell, manyCell) = (firstCell(oneCols), firstCell(manyCols))
      val byKey = scala.collection.mutable.Map.empty[String, scala.collection.mutable.ArrayBuffer[String]]
      rel.cells.foreach { row =>
        for (oc <- oneCell(row); mc <- manyCell(row))
          byKey.getOrElseUpdate(oc, scala.collection.mutable.ArrayBuffer.empty) ++=
            Tokenization.tokens(mc, strategy)
      }
      byKey.toSeq.map { case (k, v) => k -> v.distinct.toIndexedSeq }
    }
    val eligible = groups.filter(_._2.size >= 3).toIndexedSeq
    if (eligible.size < 2) return Seq.empty
    val allMany: IndexedSeq[String] = groups.flatMap(_._2).distinct.toIndexedSeq
    (0 until n * 3).flatMap { _ =>
      val (_, inGroup) = eligible(rng.nextInt(eligible.size))
      for {
        three <- sampleDistinct(rng, inGroup, 3)
        out   <- sampleDistinct(rng, allMany, 1, not = inGroup.toSet)
      } yield QTest("MC", three, out.head)
    }.take(n)
  }

  /** Fraction of tests where the model singles out the intruder, or `None`
    * (not applicable) when there is no test. Tests whose intruder is unknown
    * to the model count as failed (matching how the paper penalises
    * pre-trained spaces missing dataset vocabulary). */
  def evaluate(model: EmbeddingModel, tests: Seq[QTest], seed: Long = 0L): Option[Double] =
    Option.when(tests.nonEmpty) {
      val rng = new Random(seed)
      val passed = tests.count { t =>
        val shuffled = rng.shuffle(t.tokens :+ t.intruder)
        model.doesntMatch(shuffled).contains(t.intruder)
      }
      passed.toDouble / tests.size
    }
}
