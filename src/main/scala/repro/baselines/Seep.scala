package repro.baselines

import repro.core.{EmbeddingModel, NodeNames, Relation, Tokenization}
import repro.integration.SchemaMatcher

/** Stand-in for SEEP ("Seeping Semantics", ICDE'18) — the existing
  * embedding-based schema-matching system of Table 3.
  *
  * SEEP links attributes by combining the embedding of the attribute *label*
  * with an embedding signature of the attribute's *instances*; the paper
  * stresses that `SeepP`'s quality tracks the quality of the labels. We keep
  * that architecture: per column, signature = (label vector, instance
  * centroid); cross-column similarity = `w·cos(labels) + (1−w)·cos(centroids)`
  * with `w` = `LabelWeight`; matching = the same two-sweep mutual matching
  * used everywhere.
  *
  *  - [[runPretrained]] (SeepP): both parts from the pre-trained space.
  *  - [[runLocal]] (SeepL): instance centroids and CID vectors from EmbDI
  *    local embeddings (labels contribute nothing — EmbDI vectors "do not
  *    depend on the presence of the attribute labels").
  */
object Seep {

  final case class Signature(label: Array[Float], centroid: Array[Float])

  /** Per data column of `rel`, its signature from its distinct tokens under
    * `strategy`. */
  private def signatures(rel: Relation, strategy: Tokenization.Strategy)(
      sig: (String, Seq[String]) => Signature): Seq[(String, Signature)] =
    Tokenization.columnTokens(rel, strategy).map { case (c, t) => c -> sig(c, t) }

  private val LabelWeight = 0.5

  /** SeepP: pre-trained vectors for labels and instance tokens. */
  def runPretrained(r1: Relation, r2: Relation): Seq[(String, String)] = {
    def sig(c: String, toks: Seq[String]): Signature =
      Signature(
        label = PretrainedEmbeddings.tokenVector(c.toLowerCase),
        centroid = EmbeddingModel.normalizedSum(toks.map(PretrainedEmbeddings.tokenVector(_)),
          PretrainedEmbeddings.DefaultDim))
    matchBySignatures(signatures(r1, Tokenization.Flatten)(sig),
      signatures(r2, Tokenization.Flatten)(sig))
  }

  /** SeepL: EmbDI local embeddings — CID vector (if learned) blended with
    * the instance centroid; labels carry no signal in a local space. */
  def runLocal(r1: Relation, r2: Relation, model: EmbeddingModel,
               strategy: Tokenization.Strategy): Seq[(String, String)] = {
    val dim = model.dim
    def sig(dsIdx: Int)(c: String, toks: Seq[String]): Signature = {
      val cen = EmbeddingModel.normalizedSum(toks.flatMap(model.vector), dim)
      val cid = model.vector(NodeNames.cid(dsIdx, c)).getOrElse(cen)
      Signature(label = cid, centroid = cen)
    }
    matchBySignatures(signatures(r1, strategy)(sig(1)), signatures(r2, strategy)(sig(2)))
  }

  /** Minimum combined similarity for a candidate pair to be considered at
    * all — SEEP only links attributes above a confidence threshold; without
    * one, mutual matching on pure noise still emits a full permutation. */
  val MinSim = 0.35

  private def matchBySignatures(s1: Seq[(String, Signature)],
                                s2: Seq[(String, Signature)]): Seq[(String, String)] = {
    val sims = (for {
      (c1, a) <- s1; (c2, b) <- s2
      sim = LabelWeight * EmbeddingModel.dot(a.label, b.label) +
        (1 - LabelWeight) * EmbeddingModel.dot(a.centroid, b.centroid)
      if sim >= MinSim
    } yield (c1, c2) -> sim).toMap
    SchemaMatcher.mutualMatch(sims, s1.map(_._1), s2.map(_._1),
      maxIterations = 2, candidateCap = Int.MaxValue)
  }
}
