package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

import scala.util.Random

/** Universal attribute kinds a scenario column can draw from.
  *
  * The paper evaluates on heterogeneous dataset *pairs* (products, papers,
  * restaurants, movies) that we cannot redistribute; `ScenarioGen` builds a
  * synthetic entity universe and renders it into two views with the same
  * heterogeneity dimensions: renamed columns, dropped columns, merged
  * columns, abbreviated / re-coded values, token dropout, numeric noise and
  * NULLs. See DESIGN.md §3 for the substitution argument.
  */
object AttrKind extends Enumeration {
  type AttrKind = Value

  /** Multi-word title drawn from a Zipf-skewed word vocabulary. */
  val Title = Value
  /** Low-cardinality maker/brand/author value — the "one" side of a 1:N
    * relationship with Title (drives the MatchConcept tests). */
  val Maker = Value
  /** Tiny categorical vocabulary (genre/type/segment). */
  val Category = Value
  /** Mid-cardinality categorical (venue/album/label). */
  val Venue = Value
  /** Mid-cardinality categorical (city). */
  val City = Value
  /** Country: full name in one view, ISO-like code in the other. */
  val Country = Value
  /** Language: full name in one view, code in the other. */
  val Language = Value
  /** Integer year. */
  val Year = Value
  /** Real-valued price/length with format differences across views. */
  val Price = Value
  /** Formatted digit string (phone) with different formats per view. */
  val Phone = Value
  /** Multi-word street address. */
  val Addr = Value
  /** Real-valued rating in [0, 10]. */
  val Rating = Value
}

/** One column of a scenario: which universal attribute it renders, what it is
  * called in each view, and whether each view materialises it. */
final case class ColumnSpec(
    kind: AttrKind.AttrKind,
    nameIn1: String,
    nameIn2: String,
    in1: Boolean = true,
    in2: Boolean = true,
)

/** Knobs for one integration scenario (one row of the paper's Table 1). */
final case class ScenarioConfig(
    name: String,
    shorthand: String,
    /** Entities present in both views — the ER ground-truth matches. */
    nShared: Int,
    /** Entities only in view 1 / only in view 2 (size imbalance knob). */
    nOnly1: Int,
    nOnly2: Int,
    columns: Seq[ColumnSpec],
    /** Title word vocabulary size; smaller ⇒ more ambiguity ⇒ harder ER. */
    titleVocab: Int = 2000,
    /** Probability that a title's head word is drawn Zipf-skewed instead of
      * uniformly — the share of colliding, near-duplicate titles. */
    titleAmbiguity: Double = 0.15,
    makerVocab: Int = 60,
    venueVocab: Int = 120,
    cityVocab: Int = 80,
    /** Words per title in [1, maxTitleWords]. */
    maxTitleWords: Int = 3,
    /** Probability that view 2 drops a non-head title token. */
    dropTokenProb: Double = 0.2,
    /** Probability that view 2 abbreviates a maker value. */
    abbrevProb: Double = 0.15,
    /** Probability that view 2 renders country/language as a code. */
    codeProb: Double = 1.0,
    /** Probability that view 2 renders a title/maker word through its
      * (deterministic) synonym — the "alternative value format" channel:
      * surface forms unrelated as strings, bridgeable only through
      * co-occurrence context (the EN/English regime of §6). */
    synonymProb: Double = 0.0,
    /** Probability that view 1 prefixes the title with the maker (the BB
      * "brewing_company beer_name" pathology from §7.2). */
    mergeMakerIntoTitle1: Double = 0.0,
    /** Per-cell NULL probability (applied symmetrically). */
    nullProb: Double = 0.02,
    /** Extra jitter on Price in view 2. */
    numericNoise: Boolean = false,
    seed: Long = 42L,
    /** MSD-style: a single relation, no second view / ground truth. */
    singleTable: Boolean = false,
)

/** A generated scenario: two views plus exact ground truth.
  *
  * Row ids are globals: view 1 holds rids `[0, n1)`, view 2 `[n1, n1+n2)`,
  * matching how EmbDI concatenates datasets before graph construction.
  */
final case class Scenario(
    config: ScenarioConfig,
    d1: DataFrame,
    d2: DataFrame,
    /** Row counts of `d1` and `d2`, known when the views are generated. */
    nRows1: Long,
    nRows2: Long,
    /** Ground-truth duplicate pairs: columns rid1, rid2. */
    rowMatches: DataFrame,
    /** Ground-truth attribute correspondences (d1 name, d2 name). */
    colMatches: Seq[(String, String)],
    /** External dictionary code → full value (normalized tokens), for the
      * node-merging / replacement optimisation of §5.3. */
    dictionary: Map[String, String],
    /** Per (d1 col, d2 col): ground-truth token pairs for Token Matching. */
    tokenMatchGt: Map[(String, String), Seq[(String, String)]],
    /** Labeled candidate pairs (rid1, rid2, label) — the Magellan-style
      * blocking output the paper's ER benchmarks are distributed as (every
      * positive plus hard negatives that share a title head word or maker).
      * ER quality is measured over this set, matching the established
      * evaluation protocol for these datasets. */
    candidates: Seq[(Long, Long, Boolean)] = Seq.empty,
) {
  def columns1: Seq[String] = d1.columns.filterNot(_ == "__rid").toSeq
  def columns2: Seq[String] = d2.columns.filterNot(_ == "__rid").toSeq
}

/** Deterministic generator for heterogeneous dataset pairs with ground truth.
  *
  * Generation is driver-side (row counts are bench-scale, ≤ ~50k) and fully
  * determined by `config.seed`; the views are handed to Spark as DataFrames
  * of strings — exactly the shape EmbDI consumes (§4.1 treats every cell as
  * token text; numeric handling happens later in `repro.core.Numerics`).
  */
object ScenarioGen {

  /** Pronounceable synthetic word: custom vocabulary, guaranteed absent from
    * any real pre-trained corpus (the paper's "Rick" argument, §1.1). */
  private[data] def word(rng: Random, minSyl: Int = 2, maxSyl: Int = 4): String = {
    val cons = "bcdfghklmnprstvz"
    val vow  = "aeiou"
    val n = minSyl + rng.nextInt(maxSyl - minSyl + 1)
    val sb = new StringBuilder
    (0 until n).foreach { _ =>
      sb.append(cons(rng.nextInt(cons.length)))
      sb.append(vow(rng.nextInt(vow.length)))
    }
    sb.toString
  }

  private[data] def vocab(seed: Long, size: Int, tag: String): Array[String] = {
    val rng = repro.core.Rand.of(seed, tag.hashCode.toLong)
    val seen = scala.collection.mutable.LinkedHashSet.empty[String]
    while (seen.size < size) seen += s"${word(rng)}"
    seen.toArray
  }

  /** Deterministic synonym of a word: a pseudoword sharing no substring
    * structure with the original, stable across all occurrences (so the
    * synonym accumulates its own consistent co-occurrence context). */
  private[data] def synonymOf(seed: Long, w: String): String =
    word(repro.core.Rand.of(seed, w.hashCode.toLong, 0x57A0L))

  /** Zipf-ish index draw: rank r chosen with P(r) ∝ 1/(r+1). */
  private def zipfIdx(rng: Random, n: Int): Int = {
    val u = rng.nextDouble()
    val h = math.log(n + 1.0)
    math.min(n - 1, (math.exp(u * h) - 1.0).toInt)
  }

  private val CountryPairs: Seq[(String, String)] = Seq(
    "denmark" -> "dk", "france" -> "fr", "germany" -> "de", "italy" -> "it",
    "spain" -> "es", "norway" -> "no", "sweden" -> "se", "poland" -> "pl",
    "portugal" -> "pt", "ireland" -> "ie", "austria" -> "at", "belgium" -> "be",
    "finland" -> "fi", "greece" -> "gr", "hungary" -> "hu", "iceland" -> "is",
    "japan" -> "jp", "brazil" -> "br", "canada" -> "ca", "mexico" -> "mx",
  )
  private val LanguagePairs: Seq[(String, String)] = Seq(
    "english" -> "en", "french" -> "fr_l", "german" -> "de_l", "italian" -> "it_l",
    "spanish" -> "es_l", "danish" -> "da_l", "dutch" -> "nl_l", "swedish" -> "sv",
    "polish" -> "pl_l", "finnish" -> "fi_l", "greek" -> "el", "hungarian" -> "hu_l",
    "japanese" -> "ja", "portuguese" -> "pt_l", "norwegian" -> "nb", "czech" -> "cs",
  )

  /** Per-entity latent record: the "true" value for every universal attribute. */
  private final case class Entity(
      title: Seq[String], maker: String, category: String, venue: String,
      city: String, country: (String, String), language: (String, String),
      year: Int, price: Double, phone: String, addr: Seq[String], rating: Double)

  private def genEntity(cfg: ScenarioConfig, id: Long,
                        titles: Array[String], makers: Array[String],
                        cats: Array[String], venues: Array[String],
                        cities: Array[String]): Entity = {
    val rng = repro.core.Rand.of(cfg.seed, id, 0x5e11L)
    val nw  = 1 + rng.nextInt(cfg.maxTitleWords)
    // With probability `titleAmbiguity` the head word is Zipf-skewed
    // (popular words collide across entities — near-duplicate non-matches,
    // the AG/IA regime); otherwise titles draw uniformly and behave like
    // the near-unique keys of real movie/paper/restaurant names.
    val title = (0 until nw).map { i =>
      if (i == 0 && rng.nextDouble() < cfg.titleAmbiguity) titles(zipfIdx(rng, titles.length))
      else titles(rng.nextInt(titles.length))
    }
    Entity(
      title    = title,
      maker    = makers(zipfIdx(rng, makers.length)),
      category = cats(rng.nextInt(cats.length)),
      venue    = venues(zipfIdx(rng, venues.length)),
      city     = cities(rng.nextInt(cities.length)),
      country  = CountryPairs(rng.nextInt(CountryPairs.length)),
      language = LanguagePairs(rng.nextInt(LanguagePairs.length)),
      year     = 1950 + rng.nextInt(71),
      price    = math.rint((5.0 + rng.nextDouble() * 995.0) * 100) / 100,
      phone    = f"${100 + rng.nextInt(900)}%d${1000 + rng.nextInt(9000)}%d",
      addr     = (0 until 2).map(_ => cities(rng.nextInt(cities.length))) :+ "street",
      rating   = math.rint(rng.nextDouble() * 100) / 10,
    )
  }

  /** Render one cell of `e` for the given view (1 or 2), applying the view's
    * format conventions and perturbations. Returns null for a NULL cell. */
  private def render(cfg: ScenarioConfig, e: Entity, id: Long, view: Int,
                     col: ColumnSpec): String = {
    val rng = repro.core.Rand.of(cfg.seed, id, col.kind.id.toLong * 101L + view)
    if (rng.nextDouble() < cfg.nullProb) return null
    import AttrKind._
    col.kind match {
      case Title =>
        val base =
          if (view == 2 && e.title.length > 1)
            e.title.head +: e.title.tail.filter(_ => rng.nextDouble() >= cfg.dropTokenProb)
          else e.title
        val syn =
          if (view == 2) base.map(w =>
            if (rng.nextDouble() < cfg.synonymProb) synonymOf(cfg.seed, w) else w)
          else base
        val merged =
          if (view == 1 && rng.nextDouble() < cfg.mergeMakerIntoTitle1) e.maker +: syn
          else syn
        merged.mkString(" ")
      case Maker =>
        if (view == 2 && rng.nextDouble() < cfg.synonymProb * 0.5)
          synonymOf(cfg.seed, e.maker)
        else if (view == 2 && rng.nextDouble() < cfg.abbrevProb && e.maker.length > 3)
          e.maker.take(3) + "."
        else e.maker
      case Category => e.category
      case Venue    => e.venue
      case City     => e.city
      case Country  => if (view == 2 && rng.nextDouble() < cfg.codeProb) e.country._2 else e.country._1
      case Language => if (view == 2 && rng.nextDouble() < cfg.codeProb) e.language._2 else e.language._1
      case Year     => e.year.toString
      case Price =>
        if (view == 2 && cfg.numericNoise) f"${e.price + (rng.nextDouble() - 0.5)}%.1f"
        else if (view == 2) f"${e.price}%.1f"
        else f"${e.price}%.2f"
      case Phone =>
        if (view == 1) s"${e.phone.take(3)}-${e.phone.drop(3)}" else e.phone
      case Addr   => e.addr.mkString(" ")
      case Rating => if (view == 2) f"${e.rating}%.0f" else f"${e.rating}%.1f"
    }
  }

  /** Build the scenario: both views, row/column ground truth, dictionaries. */
  def generate(spark: SparkSession, cfg: ScenarioConfig): Scenario = {
    val titles = vocab(cfg.seed, cfg.titleVocab, "title")
    val makers = vocab(cfg.seed, cfg.makerVocab, "maker")
    val cats   = vocab(cfg.seed, 10, "cat")
    val venues = vocab(cfg.seed, cfg.venueVocab, "venue")
    val cities = vocab(cfg.seed, cfg.cityVocab, "city")

    val nShared = cfg.nShared
    val ids1: Seq[Long] = (0L until (nShared + cfg.nOnly1).toLong)
    val ids2: Seq[Long] =
      if (cfg.singleTable) Seq.empty
      else (0L until nShared.toLong) ++
        ((nShared + cfg.nOnly1).toLong until (nShared + cfg.nOnly1 + cfg.nOnly2).toLong)

    val cols1 = cfg.columns.filter(_.in1)
    val cols2 = cfg.columns.filter(_.in2)

    // Each entity once; a shared entity is rendered into both views.
    val entity: Map[Long, Entity] = (ids1 ++ ids2).distinct
      .map(id => id -> genEntity(cfg, id, titles, makers, cats, venues, cities)).toMap

    def mkRows(ids: Seq[Long], view: Int, cols: Seq[ColumnSpec], ridBase: Long): Seq[Row] =
      ids.zipWithIndex.map { case (id, i) =>
        Row.fromSeq((ridBase + i) +: cols.map(c => render(cfg, entity(id), id, view, c)))
      }

    def mkSchema(cols: Seq[ColumnSpec], view: Int): StructType =
      StructType(
        StructField("__rid", LongType, nullable = false) +:
        cols.map(c => StructField(if (view == 1) c.nameIn1 else c.nameIn2, StringType, nullable = true))
      )

    val rows1 = mkRows(ids1, 1, cols1, 0L)
    val rows2 = mkRows(ids2, 2, cols2, ids1.size.toLong)

    val d1 = spark.createDataFrame(spark.sparkContext.parallelize(rows1.toSeq, 8), mkSchema(cols1, 1))
    val d2 = spark.createDataFrame(spark.sparkContext.parallelize(rows2.toSeq, 8), mkSchema(cols2, 2))

    // Shared entities occupy the first nShared positions of both views.
    val matches: Seq[Row] =
      if (cfg.singleTable) Seq.empty
      else (0 until nShared).map(i => Row(i.toLong, (ids1.size + i).toLong))
    val matchSchema = StructType(Seq(
      StructField("rid1", LongType, nullable = false),
      StructField("rid2", LongType, nullable = false)))
    val rowMatches =
      spark.createDataFrame(spark.sparkContext.parallelize(matches.toSeq, 4), matchSchema)

    val colMatches = cfg.columns.filter(c => c.in1 && c.in2).map(c => (c.nameIn1, c.nameIn2))

    val dict: Map[String, String] =
      (CountryPairs.map { case (full, code) => code -> full } ++
       LanguagePairs.map { case (full, code) => code -> full }).toMap

    // Token-matching ground truth: for Country/Language columns present in
    // both views, the (full name, code) pairs that actually occur.
    val tmGt: Map[(String, String), Seq[(String, String)]] =
      cfg.columns
        .filter(c => c.in1 && c.in2 &&
          (c.kind == AttrKind.Country || c.kind == AttrKind.Language))
        .map { c =>
          val pairs = if (c.kind == AttrKind.Country) CountryPairs else LanguagePairs
          (c.nameIn1, c.nameIn2) -> pairs
        }.toMap

    // Candidate pairs: all positives + hard negatives (shared title head
    // word or shared maker, different entity) + a sprinkle of randoms —
    // approximating the blocking output the real benchmarks ship with.
    val candidates: Seq[(Long, Long, Boolean)] =
      if (cfg.singleTable) Seq.empty
      else {
        val rng = repro.core.Rand.of(cfg.seed, 0xCA4DL)
        // (rid, entity id, entity) of each view's rows.
        val view1 = ids1.zipWithIndex.map { case (id, i) => (i.toLong, id, entity(id)) }
        val view2 = ids2.zipWithIndex.map { case (id, i) => ((ids1.size + i).toLong, id, entity(id)) }
        val byHead2 = view2.groupBy(_._3.title.head)
        val byMaker2 = view2.groupBy(_._3.maker)
        val positives = matches.map(r => (r.getLong(0), r.getLong(1), true))
        // Several hard negatives per d1 row: blocking output is dense —
        // popular d2 rows appear in many pairs, which is what makes the
        // mutual-NN rule of Algorithm 6 discriminative rather than
        // structurally trivial on isolated pairs.
        val negCap = math.max(400, positives.size * 12)
        val negatives = scala.collection.mutable.LinkedHashSet.empty[(Long, Long)]
        view1.foreach { case (rid1, id1, e1) =>
          val pool = (byHead2.getOrElse(e1.title.head, Seq.empty) ++
            byMaker2.getOrElse(e1.maker, Seq.empty)).filter(_._2 != id1).distinct
          val take = math.min(4, pool.size)
          var added = 0
          var tries = 0
          while (added < take && tries < take * 4 && negatives.size < negCap) {
            val cand = pool(rng.nextInt(pool.size))._1
            if (negatives.add((rid1, cand))) added += 1
            tries += 1
          }
        }
        positives ++ negatives.toSeq.map { case (a, b) => (a, b, false) }
      }

    Scenario(cfg, d1, d2, ids1.size.toLong, ids2.size.toLong, rowMatches, colMatches, dict, tmGt,
      candidates)
  }
}
