package repro.core

import java.util.SplittableRandom
import java.util.stream.IntStream

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.DataFrame

/** Embedding construction (§4.3): skip-gram with hierarchical softmax
  * (Mikolov et al., NIPS'13), the algorithm of Spark MLlib's
  * `mllib.feature.Word2Vec`, trained on the driver's cores over dense int
  * word ids.
  *
  * The walkers build the corpus on the driver; vocabulary, Huffman tree and
  * the SGD epochs then run on flat `Array[Float]` weights. The epochs are
  * round-synchronous data-parallel SGD (see `SkipGramHS`) over a fixed
  * number of slices, so training is deterministic in the corpus sentences
  * (in order) and `cfg` alone, whatever the host's core count; at one slice
  * it is MLlib's one-partition loop.
  * Differences from MLlib: the parallel rounds, the RNG streams, and words
  * of equal count are ordered by a fixed hash of the word (MLlib's order is
  * the hash order of a `reduceByKey`; name order would make same-count RIDs
  * Huffman siblings).
  *
  * The paper's default is 300 dimensions / window 3 / skip-gram; dimension
  * is a runtime knob here (benches use 64 — §7.3 reports "limited, mixed
  * effects" of dimensionality, and our ablation bench re-checks that).
  * CBOW is not implemented; see DESIGN.md §3.
  */
object EmbeddingTrainer {

  final case class W2VConfig(
      dim: Int = 64,
      window: Int = 3,
      minCount: Int = 2,
      maxIter: Int = 1,
      seed: Long = 99L,
  )

  /** The initial learning rate (MLlib's and word2vec's skip-gram default). */
  private[repro] final val StepSize = 0.025
  /** MLlib's sentence chunk length (`maxSentenceLength`). */
  private val MaxSentenceLength = 1000
  /** Slices trained in parallel per round. A constant, not a setting and not
    * the host's core count, so a model depends on the corpus and `cfg` only. */
  private[core] val Shards = 4
  /** Words per round, measured (DESIGN.md §2): a slice trains on rows up to
    * a round old, and at 500 words or more the Table 3 means and `match-im`
    * ER drift from the one-slice loop's; 128-word rounds cost ~10 % more E. */
  private[core] val RoundWords = 256

  /** Train on a walk corpus, one sentence per row. */
  def train(corpus: Array[Array[String]], cfg: W2VConfig): EmbeddingModel =
    train(corpus, cfg, Shards)

  /** [[train]] with `shards` slices per round; one shard is MLlib's
    * sequential loop. */
  private[core] def train(corpus: Array[Array[String]], cfg: W2VConfig,
                          shards: Int): EmbeddingModel = {
    val enc = Encoded(corpus.iterator.map(mutable.ArraySeq.make(_)), cfg.minCount)
    require(enc.words.nonEmpty,
      s"empty vocabulary: no word occurs at least minCount = ${cfg.minCount} times")
    require(enc.words.length.toLong * cfg.dim < Int.MaxValue,
      s"vocabulary ${enc.words.length} x dim ${cfg.dim} too large; raise minCount or lower dim")
    val tree = HuffmanTree(enc.counts)
    val syn0 = new SkipGramHS(enc, tree, cfg, shards).fit()
    EmbeddingModel(enc.words.indices.map(i =>
      enc.words(i) -> java.util.Arrays.copyOfRange(syn0, i * cfg.dim, (i + 1) * cfg.dim)))
  }

  /** Train on a `sentence: array<string>` DataFrame, rows in collect order;
    * kept only for the `perfbench/` harness. */
  def train(corpus: DataFrame, cfg: W2VConfig): EmbeddingModel =
    train(corpus.select("sentence").collect().map(_.getSeq[String](0).toArray), cfg)

  /** The order of the vocabulary: count descending, ties by a fixed hash of
    * the word, then by the word itself. */
  private val vocabOrder: Ordering[(String, Long)] =
    Ordering.by[(String, Long), (Long, Long, String)] { case (w, n) =>
      (-n, Rand.mix64(MurmurHash3.stringHash(w).toLong), w)
    }

  /** A corpus as vocabulary ids: `words(i)` has count `counts(i)` (counts
    * descending, see [[vocabOrder]]); sentence `s` is
    * `tokens(ends(s - 1) until ends(s))`, out-of-vocabulary words dropped,
    * split every [[MaxSentenceLength]] words, empty sentences omitted. */
  private[core] final class Encoded(val words: Array[String], val counts: Array[Long],
                                    val tokens: Array[Int], val ends: Array[Int])

  private[core] object Encoded {
    def apply(sentences: Iterator[Iterable[String]], minCount: Int): Encoded = {
      // Provisional ids in order of first occurrence, then one remap.
      val ids = mutable.HashMap.empty[String, Int]
      val names = mutable.ArrayBuffer.empty[String]
      val rawIds = new mutable.ArrayBuilder.ofInt
      val rawEnds = new mutable.ArrayBuilder.ofInt
      sentences.foreach { s =>
        s.foreach(w => rawIds += ids.getOrElseUpdate(w, { names += w; names.length - 1 }))
        rawEnds += rawIds.length
      }
      val raw = rawIds.result()
      val seen = new Array[Long](names.length)
      raw.foreach(id => seen(id) += 1)
      val kept = names.indices.filter(i => seen(i) >= minCount)
        .sortBy(i => (names(i), seen(i)))(vocabOrder)
      val remap = Array.fill(names.length)(-1)
      kept.indices.foreach(v => remap(kept(v)) = v)

      val tokens = new mutable.ArrayBuilder.ofInt
      val ends = new mutable.ArrayBuilder.ofInt
      var start = 0
      rawEnds.result().foreach { end =>
        var len = 0
        var i = start
        while (i < end) {
          val v = remap(raw(i))
          if (v >= 0) {
            tokens += v
            len += 1
            if (len == MaxSentenceLength) { ends += tokens.length; len = 0 }
          }
          i += 1
        }
        if (len > 0) ends += tokens.length
        start = end
      }
      new Encoded(kept.map(names).toArray, kept.map(seen).toArray, tokens.result(), ends.result())
    }
  }

  /** MLlib's `createBinaryTree` over counts sorted descending. Word `w`'s
    * path has `codeLen(w)` steps; step `d` is inner node
    * `points(offsets(w) + d)` in `[0, V - 2]` (the root is `V - 2`) and
    * branch `codes(offsets(w) + d)`. */
  private[core] final class HuffmanTree(val offsets: Array[Int], val points: Array[Int],
                                        val codes: Array[Byte]) {
    def codeLen(w: Int): Int = offsets(w + 1) - offsets(w)
    def maxCodeLen: Int = (0 until offsets.length - 1).map(codeLen).maxOption.getOrElse(0)
  }

  private[core] object HuffmanTree {
    def apply(counts: Array[Long]): HuffmanTree = {
      val v = counts.length
      // Leaves 0 until v (ascending from the back), inner nodes v until 2v - 1
      // (created in ascending count order); a node not yet created never wins.
      val count = Array.fill(2 * v)(Long.MaxValue)
      System.arraycopy(counts, 0, count, 0, v)
      val parent = new Array[Int](2 * v)
      val binary = new Array[Byte](2 * v)
      var pos1 = v - 1
      var pos2 = v
      def nextMin(): Int =
        if (pos1 >= 0 && count(pos1) < count(pos2)) { pos1 -= 1; pos1 + 1 }
        else { pos2 += 1; pos2 - 1 }
      var a = 0
      while (a < v - 1) {
        val min1 = nextMin()
        val min2 = nextMin()
        count(v + a) = count(min1) + count(min2)
        parent(min1) = v + a
        parent(min2) = v + a
        binary(min2) = 1
        a += 1
      }
      val root = 2 * v - 2
      val depth = Array.tabulate(v) { w =>
        var b = w; var n = 0
        while (b != root) { b = parent(b); n += 1 }
        n
      }
      val offsets = depth.scanLeft(0)(_ + _)
      val points = new Array[Int](offsets(v))
      val codes = new Array[Byte](offsets(v))
      var w = 0
      while (w < v) {
        // Walk leaf → root, filling the path root-first.
        var b = w
        var d = depth(w) - 1
        while (b != root) {
          codes(offsets(w) + d) = binary(b)
          points(offsets(w) + d) = parent(b) - v
          b = parent(b)
          d -= 1
        }
        w += 1
      }
      new HuffmanTree(offsets, points, codes)
    }
  }

  /** MLlib's sigmoid table: 1000 entries over (−6, 6). */
  private val MaxExp = 6
  private val ExpTableSize = 1000
  private val expTable: Array[Float] = Array.tabulate(ExpTableSize) { i =>
    val t = math.exp((2.0 * i / ExpTableSize - 1.0) * MaxExp)
    (t / (t + 1.0)).toFloat
  }

  /** One training run as round-synchronous data-parallel SGD. The corpus is
    * cut on sentence boundaries into rounds of `shards` slices of about
    * [[RoundWords]]` / shards` words of contiguous sentences each, and a
    * round's slices train in parallel. A slice trains on private copies of
    * the syn0 and syn1 rows it touches, each copied by global id on first
    * touch; syn0 and syn1 change only at the barrier, so a copy holds the
    * round-start row. At the barrier slice 0 copies its rows back and each
    * later slice adds its deltas, in slice order. The calling thread draws
    * the rates and window shrinks in sentence order before each round, as a
    * sequential loop draws them, so one shard is MLlib's per-partition loop
    * exactly, and a model never depends on the pool that runs the slices.
    *
    * The hot loop is split into one method per sentence and one per (word,
    * context) pair so the JIT compiles each on its own: a version that kept
    * the whole epoch loop in one method ran ~25× slower in its first timed
    * run than in warm-up. */
  private final class SkipGramHS(enc: Encoded, tree: HuffmanTree, cfg: W2VConfig, shards: Int) {
    private val dim = cfg.dim
    private val window = cfg.window
    private val syn0 = {
      val init = new SplittableRandom(Rand.mix64(cfg.seed))
      Array.fill(enc.words.length * dim)((init.nextFloat() - 0.5f) / dim)
    }
    private val syn1 = new Array[Float](enc.words.length * dim)
    private val trainWords = enc.counts.sum
    private val totalWords = cfg.maxIter * trainWords + 1
    private val sliceWords = math.max(1, RoundWords / shards)
    private val slices = Array.tabulate(shards)(new Slice(_))

    /** All epochs; returns syn0, row `i` the vector of `enc.words(i)`. */
    def fit(): Array[Float] = {
      var k = 1
      while (k <= cfg.maxIter) { epoch(k); k += 1 }
      syn0
    }

    private def sentenceStart(s: Int): Int = if (s == 0) 0 else enc.ends(s - 1)

    /** MLlib's per-partition schedule: the rate restarts at `StepSize` each
      * epoch and decays linearly with the words seen, re-set whenever more
      * than 10,000 words have passed since the last re-set. */
    private def epoch(k: Int): Unit = {
      val random = new SplittableRandom(Rand.mix64(Rand.mix64(cfg.seed) ^ k))
      var alpha = StepSize
      val before = (k - 1) * trainWords
      var lastWordCount = 0L
      var wordCount = 0L
      var s = 0
      while (s < enc.ends.length) {
        var t = 0
        while (t < shards) {
          val slice = slices(t)
          slice.first = s
          val from = sentenceStart(s)
          while (s < enc.ends.length && sentenceStart(s) - from < sliceWords) {
            if (wordCount - lastWordCount > 10000) {
              lastWordCount = wordCount
              alpha = math.max(StepSize * (1 - (wordCount + before).toDouble / totalWords),
                StepSize * 0.0001)
            }
            slice.alphas(s - slice.first) = alpha
            var pos = sentenceStart(s)
            wordCount += enc.ends(s) - pos
            while (pos < enc.ends(s)) { slice.shrinks(pos - from) = random.nextInt(window); pos += 1 }
            s += 1
          }
          slice.last = s
          t += 1
        }
        IntStream.range(0, shards).parallel().forEach(t => slices(t).train())
        slices.foreach(_.writeBack())
      }
    }

    /** Slice `t`'s share of a round, sentences `first until last`, and each
      * sentence's rate and each position's window shrink, indexed from the
      * slice's first sentence and first position. It walks the corpus and
      * the Huffman paths in place and addresses its [[Rows]] by global id. */
    private final class Slice(t: Int) {
      var first = 0
      var last = 0
      val alphas = new Array[Double](sliceWords)
      val shrinks = new Array[Int](sliceWords + MaxSentenceLength)
      private val rows0 = new Rows(syn0, dim, enc.words.length)
      private val rows1 = new Rows(syn1, dim, enc.words.length)
      private val neu1e = new Array[Float](dim)
      private val dots = new Array[Float](tree.maxCodeLen)
      /** The current word's path as row offsets into `rows1.local`. */
      private val path = new Array[Int](tree.maxCodeLen)
      private var alpha = StepSize

      /** Train the slice's sentences; a later slice's rows then hold deltas. */
      def train(): Unit = {
        rows0.clear()
        rows1.clear()
        val from = sentenceStart(first)
        var s = first
        while (s < last) {
          alpha = alphas(s - first)
          sentence(sentenceStart(s), enc.ends(s), from)
          s += 1
        }
        if (t > 0) { rows0.toDeltas(); rows1.toDeltas() }
      }

      def writeBack(): Unit = { rows0.writeBack(t == 0); rows1.writeBack(t == 0) }

      /** The sentence at corpus positions `[start, end)`; the slice starts at `from`. */
      private def sentence(start: Int, end: Int, from: Int): Unit = {
        val tokens = enc.tokens
        var pos = start
        while (pos < end) {
          val b = shrinks(pos - from)
          var c = math.max(start, pos - window + b)
          val last = math.min(end - 1, pos + window - b)
          while (c <= last) {
            if (c != pos) pair(tokens(pos), rows0.slot(tokens(c)) * dim)
            c += 1
          }
          pos += 1
        }
      }

      /** Hierarchical-softmax update for predicting word `word` from the
        * context row at `l1`. syn0's row is fixed and the inner nodes of one
        * path are distinct, so every dot product can be taken before the
        * updates. The copies are read after `slot`, which can grow them. */
      private def pair(word: Int, l1: Int): Unit = {
        val from = tree.offsets(word)
        val n = tree.offsets(word + 1) - from
        val path = this.path
        val dim = SkipGramHS.this.dim
        var d = 0
        while (d < n) { path(d) = rows1.slot(tree.points(from + d)) * dim; d += 1 }
        val syn0 = rows0.local
        val syn1 = rows1.local
        val codes = tree.codes
        val neu1e = this.neu1e
        val dots = this.dots
        d = 0
        while (d < n) { dots(d) = dot(syn0, l1, syn1, path(d), dim); d += 1 }
        java.util.Arrays.fill(neu1e, 0f)
        d = 0
        while (d < n) {
          val f = dots(d)
          if (f > -MaxExp && f < MaxExp) {
            val sig = expTable(((f + MaxExp) * (ExpTableSize / MaxExp / 2.0)).toInt)
            val g = ((1 - codes(from + d) - sig) * alpha).toFloat
            val l2 = path(d)
            axpy(g, syn1, l2, neu1e, 0, dim)
            axpy(g, syn0, l1, syn1, l2, dim)
          }
          d += 1
        }
        axpy(1f, neu1e, 0, syn0, l1, dim)
      }
    }
  }

  /** A slice's private copies of the rows of the weight table `global`
    * (`n` rows) it touches in a round: [[slot]] maps a global row id to its
    * copy, made on first touch, in order of first touch. The copies grow
    * with the rows touched; the index costs one int a row. */
  private final class Rows(global: Array[Float], dim: Int, n: Int) {
    private val slotOf = Array.fill(n)(-1)
    private var keys = new Array[Int](64)
    var local = new Array[Float](64 * dim)
    var size = 0

    /** The local number of row `g`, copied on first touch. */
    def slot(g: Int): Int = {
      var i = slotOf(g)
      if (i < 0) {
        i = size
        if (keys.length == i) {
          keys = java.util.Arrays.copyOf(keys, 2 * i)
          local = java.util.Arrays.copyOf(local, 2 * i * dim)
        }
        keys(i) = g
        slotOf(g) = i
        System.arraycopy(global, g * dim, local, i * dim, dim)
        size += 1
      }
      i
    }

    /** Turn every copy into its change since the round's start. */
    def toDeltas(): Unit = {
      var i = 0
      while (i < size) {
        val g = keys(i) * dim
        var j = 0
        while (j < dim) { local(i * dim + j) -= global(g + j); j += 1 }
        i += 1
      }
    }

    /** Copy every row back (`copy`), or add every delta. */
    def writeBack(copy: Boolean): Unit = {
      var i = 0
      while (i < size) {
        val g = keys(i) * dim
        if (copy) System.arraycopy(local, i * dim, global, g, dim)
        else axpy(1f, local, i * dim, global, g, dim)
        i += 1
      }
    }

    def clear(): Unit = {
      var i = 0
      while (i < size) { slotOf(keys(i)) = -1; i += 1 }
      size = 0
    }
  }

  /** `y[yo, yo + n) += a·x[xo, xo + n)`. */
  private def axpy(a: Float, x: Array[Float], xo: Int, y: Array[Float], yo: Int, n: Int): Unit = {
    var i = 0
    while (i < n) { y(yo + i) += a * x(xo + i); i += 1 }
  }

  /** `x[xo, xo + n) · y[yo, yo + n)` with four accumulators. */
  private def dot(x: Array[Float], xo: Int, y: Array[Float], yo: Int, n: Int): Float = {
    var s0, s1, s2, s3 = 0f
    var i = 0
    val n4 = n & ~3
    while (i < n4) {
      s0 += x(xo + i) * y(yo + i)
      s1 += x(xo + i + 1) * y(yo + i + 1)
      s2 += x(xo + i + 2) * y(yo + i + 2)
      s3 += x(xo + i + 3) * y(yo + i + 3)
      i += 4
    }
    while (i < n) { s0 += x(xo + i) * y(yo + i); i += 1 }
    (s0 + s1) + (s2 + s3)
  }

  /** A model trained on a walk corpus, with the corpus size and the walk (W)
    * and train (E) wall-clock times of Table 6. */
  final case class Trained(model: EmbeddingModel, nSentences: Long, walkMs: Long, trainMs: Long)

  /** Build `corpus` (timed as W), then train on it (timed as E). */
  def walkThenTrain(corpus: => Array[Array[String]], cfg: W2VConfig): Trained = {
    val t0 = System.nanoTime()
    val c = corpus
    val t1 = System.nanoTime()
    val model = train(c, cfg)
    val t2 = System.nanoTime()
    Trained(model, c.length.toLong, (t1 - t0) / 1_000_000L, (t2 - t1) / 1_000_000L)
  }
}
