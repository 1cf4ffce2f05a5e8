package repro.core

import java.util.SplittableRandom

/** `EmbeddingTrainer`'s skip-gram loop as it was before the round-synchronous
  * trainer: MLlib's per-partition loop, one thread updating the weights in
  * place. Kept as the oracle that [[EmbeddingTrainerSpec]] holds the trainer
  * at one shard to, bit for bit. The loop and its kernels are copied
  * unchanged; vocabulary and Huffman tree are the trainer's own.
  */
object ReferenceSkipGram {
  import EmbeddingTrainer.{Encoded, HuffmanTree, StepSize, W2VConfig}

  def train(corpus: Array[Array[String]], cfg: W2VConfig): EmbeddingModel = {
    val enc = Encoded(corpus.iterator.map(_.toSeq), cfg.minCount)
    val syn0 = new SkipGramHS(enc, HuffmanTree(enc.counts), cfg).fit()
    EmbeddingModel(enc.words.indices.map(i =>
      enc.words(i) -> java.util.Arrays.copyOfRange(syn0, i * cfg.dim, (i + 1) * cfg.dim)))
  }

  /** MLlib's sigmoid table: 1000 entries over (−6, 6). */
  private val MaxExp = 6
  private val ExpTableSize = 1000
  private val expTable: Array[Float] = Array.tabulate(ExpTableSize) { i =>
    val t = math.exp((2.0 * i / ExpTableSize - 1.0) * MaxExp)
    (t / (t + 1.0)).toFloat
  }

  /** One training run. The hot loop is split into one method per sentence
    * and one per (word, context) pair so the JIT compiles each on its own:
    * a version that kept the whole epoch loop in one method ran ~25× slower
    * in its first timed run than in warm-up. */
  private final class SkipGramHS(enc: Encoded, tree: HuffmanTree, cfg: W2VConfig) {
    private val dim = cfg.dim
    private val window = cfg.window
    private val syn0 = {
      val init = new SplittableRandom(Rand.mix64(cfg.seed))
      Array.fill(enc.words.length * dim)((init.nextFloat() - 0.5f) / dim)
    }
    private val syn1 = new Array[Float](enc.words.length * dim)
    private val neu1e = new Array[Float](dim)
    private val dots = new Array[Float](tree.maxCodeLen)
    private val trainWords = enc.counts.sum
    private val totalWords = cfg.maxIter * trainWords + 1
    private var alpha = StepSize
    private var random: SplittableRandom = _

    /** All epochs; returns syn0, row `i` the vector of `enc.words(i)`. */
    def fit(): Array[Float] = {
      var k = 1
      while (k <= cfg.maxIter) { epoch(k); k += 1 }
      syn0
    }

    /** MLlib's per-partition loop: the rate restarts at `StepSize` each
      * epoch and decays linearly with the words seen, re-set whenever more
      * than 10,000 words have passed since the last re-set. */
    private def epoch(k: Int): Unit = {
      random = new SplittableRandom(Rand.mix64(Rand.mix64(cfg.seed) ^ k))
      alpha = StepSize
      val before = (k - 1) * trainWords
      var lastWordCount = 0L
      var wordCount = 0L
      var start = 0
      var s = 0
      while (s < enc.ends.length) {
        if (wordCount - lastWordCount > 10000) {
          lastWordCount = wordCount
          alpha = math.max(StepSize * (1 - (wordCount + before).toDouble / totalWords),
            StepSize * 0.0001)
        }
        val end = enc.ends(s)
        wordCount += end - start
        sentence(start, end)
        start = end
        s += 1
      }
    }

    private def sentence(start: Int, end: Int): Unit = {
      val tokens = enc.tokens
      var pos = start
      while (pos < end) {
        val b = random.nextInt(window)
        var c = math.max(start, pos - window + b)
        val last = math.min(end - 1, pos + window - b)
        while (c <= last) {
          if (c != pos) pair(tokens(pos), tokens(c) * dim)
          c += 1
        }
        pos += 1
      }
    }

    /** Hierarchical-softmax update for predicting `word` from the context row
      * at `l1`. syn0's row is fixed and the inner nodes of one path are
      * distinct, so every dot product can be taken before the updates. */
    private def pair(word: Int, l1: Int): Unit = {
      val syn0 = this.syn0
      val syn1 = this.syn1
      val neu1e = this.neu1e
      val dots = this.dots
      val points = tree.points
      val codes = tree.codes
      val dim = this.dim
      val from = tree.offsets(word)
      val n = tree.offsets(word + 1) - from
      var d = 0
      while (d < n) { dots(d) = dot(syn0, l1, syn1, points(from + d) * dim, dim); d += 1 }
      java.util.Arrays.fill(neu1e, 0f)
      d = 0
      while (d < n) {
        val f = dots(d)
        if (f > -MaxExp && f < MaxExp) {
          val sig = expTable(((f + MaxExp) * (ExpTableSize / MaxExp / 2.0)).toInt)
          val g = ((1 - codes(from + d) - sig) * alpha).toFloat
          val l2 = points(from + d) * dim
          axpy(g, syn1, l2, neu1e, 0, dim)
          axpy(g, syn0, l1, syn1, l2, dim)
        }
        d += 1
      }
      axpy(1f, neu1e, 0, syn0, l1, dim)
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
}
