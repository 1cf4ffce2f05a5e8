package repro.data

import repro.{Oracle, SparkSpec}

class ScenarioGenSpec extends SparkSpec {

  private lazy val tiny: Scenario = Scenarios.generate(spark, Scenarios.tiny)

  test("view sizes follow the config") {
    assert(tiny.nRows1 == Scenarios.tiny.nShared + Scenarios.tiny.nOnly1)
    assert(tiny.nRows2 == Scenarios.tiny.nShared + Scenarios.tiny.nOnly2)
    assert(tiny.nRows1 == tiny.d1.count() && tiny.nRows2 == tiny.d2.count())
  }

  test("rids are globally unique and contiguous") {
    val r1 = tiny.d1.select("__rid").collect().map(_.getLong(0)).sorted
    val r2 = tiny.d2.select("__rid").collect().map(_.getLong(0)).sorted
    assert(r1.head == 0 && r1.last == r1.length - 1)
    assert(r2.head == r1.length)
    assert(r1.toSet.intersect(r2.toSet).isEmpty)
  }

  test("rowMatches has one pair per shared entity") {
    assert(tiny.rowMatches.count() == Scenarios.tiny.nShared)
  }

  test("rowMatches pairs reference valid rids of each view (DuckDB oracle)") {
    Oracle.assertEquivalent(
      tiny.rowMatches.join(tiny.d1, tiny.rowMatches("rid1") === tiny.d1("__rid"))
        .selectExpr("count(*) as n"),
      "SELECT count(*) as n FROM m JOIN d ON m.rid1 = d.__rid",
      "m" -> tiny.rowMatches, "d" -> tiny.d1.select("__rid"))
  }

  test("matched rows actually look alike: shared entities share title head tokens") {
    val d1 = tiny.d1.collect().map(r => r.getLong(0) -> r).toMap
    val d2 = tiny.d2.collect().map(r => r.getLong(0) -> r).toMap
    val pairs = tiny.rowMatches.collect().map(r => (r.getLong(0), r.getLong(1)))
    val agree = pairs.count { case (a, b) =>
      val t1 = Option(d1(a).getAs[String]("title"))
      val t2 = Option(d2(b).getAs[String]("name"))
      (t1, t2) match {
        case (Some(x), Some(y)) => x.split(" ").head == y.split(" ").head
        case _ => true // a null title can't disagree
      }
    }
    assert(agree.toDouble / pairs.length > 0.9)
  }

  test("unmatched rows come from disjoint entities") {
    // titles of d1-only rows should rarely coincide exactly with d2 rows
    val mset = tiny.rowMatches.collect().map(_.getLong(0)).toSet
    val only1 = tiny.d1.collect().filterNot(r => mset(r.getLong(0)))
    assert(only1.nonEmpty)
  }

  test("column ground truth lists only columns present in both views") {
    val c1 = tiny.d1.columns.toSet
    val c2 = tiny.d2.columns.toSet
    tiny.colMatches.foreach { case (a, b) =>
      assert(c1.contains(a), s"$a missing in d1")
      assert(c2.contains(b), s"$b missing in d2")
    }
  }

  test("country column is re-coded in view 2") {
    val codes = tiny.d2.select("country_code").collect()
      .flatMap(r => Option(r.getString(0))).toSet
    assert(codes.subsetOf(tiny.dictionary.keySet), s"unexpected values: ${codes.take(5)}")
    val full = tiny.d1.select("country").collect().flatMap(r => Option(r.getString(0))).toSet
    assert(full.subsetOf(tiny.dictionary.values.toSet))
  }

  test("dictionary maps codes to full names consistently") {
    tiny.dictionary.foreach { case (code, full) =>
      assert(code != full)
      assert(code.length <= 4)
    }
  }

  test("nulls appear at roughly the configured rate") {
    val cols = tiny.d1.columns.filterNot(_ == "__rid")
    val rows = tiny.d1.collect()
    val cells = rows.length * cols.length
    val nulls = rows.map(r => cols.count(c => r.getAs[Any](c) == null)).sum
    val rate = nulls.toDouble / cells
    assert(rate > 0 && rate < 4 * Scenarios.tiny.nullProb, s"null rate $rate")
  }

  test("generation is deterministic") {
    val again = Scenarios.generate(spark, Scenarios.tiny)
    val a = tiny.d1.collect().map(_.toString).sorted
    val b = again.d1.collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("different seeds give different data") {
    val other = Scenarios.generate(spark, Scenarios.tiny.copy(seed = 12345L))
    val a = tiny.d1.collect().map(_.toString).sorted
    val b = other.d1.collect().map(_.toString).sorted
    assert(!a.sameElements(b))
  }

  test("singleTable scenario has an empty second view and no matches") {
    val msd = Scenarios.generate(spark, Scenarios.msd.copy(nOnly1 = 200))
    assert(msd.nRows2 == 0)
    assert(msd.rowMatches.count() == 0)
  }

  test("all nine paper scenarios have valid configs") {
    Scenarios.allConfigs.foreach { cfg =>
      assert(cfg.nShared >= 0 && cfg.columns.nonEmpty, cfg.shorthand)
      assert(cfg.columns.exists(_.in1) && (cfg.singleTable || cfg.columns.exists(_.in2)))
    }
    assert(Scenarios.allConfigs.map(_.shorthand).distinct.size == 9)
  }

  test("byShorthand resolves every scenario and rejects unknowns") {
    Seq("IM", "AG", "WA", "IA", "FZ", "DA", "DS", "BB", "MSD").foreach { s =>
      assert(Scenarios.byShorthand(s).shorthand == s)
    }
    intercept[IllegalArgumentException](Scenarios.byShorthand("nope"))
  }

  test("BB view 1 merges brewery into beer name for some rows") {
    val bb = Scenarios.generate(spark, Scenarios.bb.copy(nOnly1 = 150, nOnly2 = 100))
    val makers = bb.d1.select("brew_factory").collect().flatMap(r => Option(r.getString(0))).toSet
    val names = bb.d1.select("beer_name").collect().flatMap(r => Option(r.getString(0)))
    val merged = names.count(n => makers.exists(m => n.startsWith(m + " ")))
    assert(merged > 0, "expected some merged 'brewery beer' names")
  }

  test("vocab generator produces the requested number of distinct words") {
    val v = ScenarioGen.vocab(1L, 500, "test")
    assert(v.length == 500)
    assert(v.distinct.length == 500)
    assert(v.forall(_.matches("[a-z]+")))
  }
}
