#ifndef DTDEVOLVE_CLASSIFY_CLASSIFIER_H_
#define DTDEVOLVE_CLASSIFY_CLASSIFIER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "classify/classification_memo.h"
#include "classify/outcome.h"
#include "dtd/dtd.h"
#include "obs/metrics.h"
#include "similarity/score_cache.h"
#include "similarity/similarity.h"
#include "util/thread_pool.h"
#include "xml/arena.h"
#include "xml/document.h"

namespace dtdevolve::classify {

/// Optional instrumentation of the scoring hot path. All pointers may be
/// null (the corresponding signal is skipped); the pointees must outlive
/// the classifier. Counters and histograms are internally atomic, so the
/// hooks fire safely from `ClassifyBatch` worker threads.
struct ClassifierMetrics {
  /// One increment per document scored (any entry point).
  obs::Counter* documents_scored = nullptr;
  /// One increment per document × DTD similarity evaluation.
  obs::Counter* similarity_evaluations = nullptr;
  /// One increment per document × DTD evaluation skipped because its
  /// score bound could not beat the best score already found (or, in
  /// `ClassifyAmong`, could not reach σ).
  obs::Counter* evaluations_pruned = nullptr;
  /// Shared subtree score cache traffic (see SubtreeScoreCache).
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* cache_evictions = nullptr;
  /// Classification memo traffic (see ClassificationMemo). A memo hit
  /// counts on `documents_scored` but performs zero similarity
  /// evaluations.
  obs::Counter* memo_hits = nullptr;
  obs::Counter* memo_misses = nullptr;
  obs::Counter* memo_evictions = nullptr;
  /// Wall-clock seconds spent scoring one document against the full set.
  obs::Histogram* score_seconds = nullptr;
};

/// Fast-path knobs of the classifier. Both layers are score-equivalent:
/// enabling or disabling them never changes `classified` / `dtd_name` /
/// `similarity` (only how much work is spent computing them), which the
/// differential oracle's batch-divergence invariant enforces end to end.
struct ClassifierOptions {
  /// Score-bound pruning: sort DTDs by a conservative per-document upper
  /// bound and skip evaluations that cannot beat the best score so far.
  bool enable_pruning = true;
  /// Shared cross-document subtree score cache.
  bool enable_score_cache = true;
  /// Approximate capacity of the shared cache.
  size_t score_cache_bytes = 64ull << 20;
  /// Optional process-wide cache to use instead of an owned one. Non-
  /// owning: the pointee must outlive the classifier. Epoch keying makes
  /// one cache safe to share across any number of classifiers (each
  /// evaluator draws a globally unique epoch), which the multi-tenant
  /// `SourceManager` relies on to share a single budget across shards.
  /// Ignored when `enable_score_cache` is false. A classifier using a
  /// shared cache never installs its own metrics on it (the cache owner
  /// wires aggregate counters once); `score_cache_bytes` is likewise the
  /// owner's concern.
  similarity::SubtreeScoreCache* shared_cache = nullptr;
  /// Classified-structure dedup: memoize whole outcomes by
  /// `(set-epoch, root fingerprint)` so a document whose root
  /// fingerprint matches an already-classified structure skips scoring
  /// entirely. Score-equivalent like the other layers — a hit replays
  /// byte-identical `classified` / `dtd_name` / `similarity` / `scores`,
  /// because the fingerprint determines every triple and the epoch pins
  /// the DTD set and σ.
  bool enable_classification_memo = true;
  /// Approximate capacity of the owned memo.
  size_t classification_memo_bytes = 32ull << 20;
  /// Optional process-wide memo (same sharing contract as
  /// `shared_cache`: non-owning, epoch keying makes it safe across
  /// classifiers, the owner wires metrics and sizes it).
  ClassificationMemo* shared_memo = nullptr;
};

/// Classifies documents against a *set of DTDs* (§2): each document is
/// matched against every DTD with the structural-similarity measure; it
/// becomes an instance of the best-scoring DTD when that score is ≥ σ,
/// and is otherwise left to the repository of unclassified documents.
///
/// Tie-break: the best-scoring DTD wins; among equal best scores the
/// lexicographically smallest name wins, independently of registration or
/// container order. `ClassifyBatch` follows the same rule.
///
/// Both document types run one candidate loop: a DOM document or a
/// streaming-parsed arena tree, scored in place.
///
/// Fast path: the document's root content symbols and subtree
/// fingerprints are derived once, every DTD gets a conservative score
/// upper bound (root-tag gate + label-vocabulary overlap — see
/// `SimilarityEvaluator::ScoreUpperBound`), DTDs are visited in
/// bound-descending order, and an evaluation is skipped when its bound
/// cannot beat the best score already found. Pruning never consults σ:
/// folding σ into the cutoff would leave the best score unknown for
/// sub-σ documents and break byte-identical outcomes. Subtree triples
/// are additionally shared across documents and batch workers through a
/// `SubtreeScoreCache` keyed by evaluator epoch, which `Invalidate` /
/// `InvalidateAll` bump implicitly by rebuilding evaluators. A
/// superseded epoch — set-epoch or evaluator epoch — has its memo and
/// cache entries freed at once, so both hold only live entries.
///
/// The classifier holds non-owning pointers to the DTDs; call
/// `Invalidate` after a DTD object changes (e.g. after evolution) so the
/// cached evaluator is rebuilt.
///
/// Thread-safety: evaluators are built eagerly by the mutating entry
/// points (`AddDtd`, `Invalidate`, …), so the const entry points
/// (`Classify`, `ClassifyBatch`, `Similarity`, `DtdNames`) mutate nothing
/// (the shared cache is internally synchronized) and may be called
/// concurrently from any number of threads, as long as no thread is
/// mutating the DTD set at the same time. The mutating entry points
/// themselves require external serialization (`XmlSource` calls them
/// only between batches).
class Classifier {
 public:
  explicit Classifier(double sigma, similarity::SimilarityOptions options = {},
                      ClassifierOptions classifier_options = {});
  /// Frees this classifier's entries from the memo and the score cache
  /// (owned or shared).
  ~Classifier();

  Classifier(const Classifier&) = delete;
  Classifier& operator=(const Classifier&) = delete;

  double sigma() const { return sigma_; }
  void set_sigma(double sigma) {
    sigma_ = sigma;
    // σ participates in `classified`, so memoized outcomes under the old
    // threshold must become unreachable.
    AdvanceSetEpoch();
  }

  const ClassifierOptions& classifier_options() const {
    return classifier_options_;
  }

  /// Installs (or clears, with a default-constructed value) the scoring
  /// instrumentation. Mutating entry point: do not call concurrently
  /// with scoring.
  void set_metrics(const ClassifierMetrics& metrics);

  /// Registers (or re-registers) a DTD under `name` and builds its
  /// evaluator. The pointee must outlive the classifier or its next
  /// `Invalidate(name)`.
  void AddDtd(const std::string& name, const dtd::Dtd* dtd);
  /// Removes a DTD from the set; returns false when unknown.
  bool RemoveDtd(const std::string& name);
  /// Rebuilds the cached evaluator of `name` (the DTD object changed).
  /// The fresh evaluator draws a new epoch; the old one frees its
  /// shared-cache entries as it is destroyed.
  void Invalidate(const std::string& name);
  void InvalidateAll();

  std::vector<std::string> DtdNames() const;
  size_t size() const { return dtds_.size(); }

  /// Classifies `doc` against every registered DTD.
  ClassificationOutcome Classify(const xml::Document& doc) const;

  /// Classifies a streaming-parsed document, memo-first: the arena
  /// carries the root fingerprint from the parse, so a hit replays the
  /// cached outcome. A miss (or the memo off) scores the arena tree in
  /// place through the same candidate loop as the DOM overload — no DOM
  /// is built — and inserts the outcome under the identical key, because
  /// arena and DOM fingerprints are bit-identical by construction. The
  /// outcome equals `Classify(doc.ToDocument())` bit for bit.
  ClassificationOutcome Classify(const xml::ArenaDocument& doc) const;

  /// Memo-probe half of the arena `Classify`: replays the cached outcome
  /// for the arena root's fingerprint under the current set-epoch, or
  /// returns nullopt (memo off, rootless document, or a miss) without
  /// scoring anything. Batch callers use this to split a chunk into
  /// replayed hits and to-be-scored misses.
  std::optional<ClassificationOutcome> MemoProbe(
      const xml::ArenaDocument& doc) const;

  /// Scoring half of the arena `Classify`, for documents whose
  /// `MemoProbe` already missed: scores each arena tree in place (no
  /// second memo lookup, no DOM) and inserts its outcome into the memo.
  /// Runs on `pool` like `ClassifyBatch`; entry i equals
  /// `Classify(*docs[i])`.
  std::vector<ClassificationOutcome> ClassifyMisses(
      const std::vector<const xml::ArenaDocument*>& docs,
      util::ThreadPool* pool) const;

  /// Classifies every document concurrently on `jobs` threads (≤ 1 runs
  /// inline). Scoring is read-only, so the result is identical — entry by
  /// entry — to calling `Classify` on each document in order.
  std::vector<ClassificationOutcome> ClassifyBatch(
      const std::vector<xml::Document>& docs, size_t jobs) const;
  /// Pointer variant for callers whose documents live elsewhere (e.g. the
  /// repository). Entries must be non-null.
  std::vector<ClassificationOutcome> ClassifyBatch(
      const std::vector<const xml::Document*>& docs, size_t jobs) const;
  /// Scores on an existing pool so repeated rounds (the chunks of
  /// `XmlSource::ProcessBatch`) don't respawn threads; `pool == nullptr`
  /// scores inline, otherwise the calling thread scores alongside the
  /// pool's workers.
  std::vector<ClassificationOutcome> ClassifyBatch(
      const std::vector<const xml::Document*>& docs,
      util::ThreadPool* pool) const;

  /// Classifies `doc` against the registered DTDs among `names` only
  /// (unknown names are ignored), with the σ threshold and tie-break of
  /// `Classify`. Re-classification uses it to score the repository
  /// against just the DTDs that changed since its last pass: a
  /// repository document already scored below σ against every other
  /// DTD, so whenever the full-set outcome is classified this one is
  /// identical to it (`classified`, `dtd_name`, `similarity`). An
  /// unclassified outcome says only that no DTD of `names` reaches σ —
  /// its `dtd_name` / `similarity` are relative to `names`, and a DTD
  /// whose score bound is below σ is skipped without an exact score.
  /// `scores` stays empty and the memo is neither read nor written.
  ClassificationOutcome ClassifyAmong(
      const xml::Document& doc, const std::vector<std::string>& names) const;
  /// `ClassifyAmong` over a batch, on `pool` like `ClassifyBatch`.
  std::vector<ClassificationOutcome> ClassifyBatchAmong(
      const std::vector<const xml::Document*>& docs,
      const std::vector<std::string>& names, util::ThreadPool* pool) const;

  /// Similarity of `doc` against one registered DTD; nullopt when `name`
  /// is unknown (distinguishable from a genuine zero score).
  std::optional<double> Similarity(const xml::Document& doc,
                                   const std::string& name) const;

  /// The conservative score upper bound the pruning layer would use for
  /// `doc` against DTD `name`; nullopt when `name` is unknown. Exposed
  /// for analysis and for the bound-admissibility property tests.
  std::optional<double> ScoreBound(const xml::Document& doc,
                                   const std::string& name) const;

  /// The subtree score cache in use (owned or shared), or nullptr when
  /// disabled.
  const similarity::SubtreeScoreCache* score_cache() const {
    return effective_cache();
  }

  /// The classification memo in use (owned or shared), or nullptr when
  /// disabled.
  const ClassificationMemo* classification_memo() const {
    return effective_memo();
  }

  /// The current set-epoch (changes on every outcome-relevant mutation);
  /// exposed for the memo-discipline tests.
  uint64_t set_epoch() const { return set_epoch_; }
  /// The score-cache epoch of `name`'s evaluator (0 when unknown);
  /// exposed for the epoch-release tests.
  uint64_t evaluator_epoch(const std::string& name) const {
    auto it = evaluators_.find(name);
    return it == evaluators_.end() ? 0 : it->second->epoch();
  }

 private:
  using Clock = std::chrono::steady_clock;

  const similarity::SimilarityEvaluator& EvaluatorFor(
      const std::string& name) const;

  /// Supersedes the current set-epoch: frees its memo entries and draws
  /// a fresh one. Every outcome-relevant mutation goes through here.
  void AdvanceSetEpoch();

  /// The candidate loop shared by both document types (defined and
  /// instantiated in the .cc for `xml::Document` and
  /// `xml::ArenaDocument`): bound-ordered exact scoring with pruning,
  /// the tie-break and σ, then the memo insert under `memo_key` and the
  /// scoring metrics. `fingerprints` is the DOM fingerprint index (null
  /// for arena documents, whose elements carry their own).
  template <typename DocumentT>
  ClassificationOutcome ScoreAndMemoize(
      const DocumentT& doc,
      const similarity::SubtreeFingerprints* fingerprints,
      const std::optional<ClassificationMemo::Key>& memo_key,
      Clock::time_point start) const;

  /// The memo key of an arena document (root fingerprint under the
  /// current set-epoch); nullopt with the memo off or without a root.
  std::optional<ClassificationMemo::Key> ArenaMemoKey(
      const xml::ArenaDocument& doc) const;

  /// Start of the `score_seconds` observation (no clock read when the
  /// histogram is not installed).
  Clock::time_point ScoreStart() const;
  /// One document scored (or replayed): the counter and the histogram.
  void CountScored(Clock::time_point start) const;

  /// The cache evaluators score through: the externally shared one when
  /// configured, else the owned one, else nullptr (caching disabled).
  similarity::SubtreeScoreCache* effective_cache() const {
    return shared_cache_ != nullptr ? shared_cache_ : cache_.get();
  }

  /// The memo outcomes replay through: shared over owned, else nullptr.
  ClassificationMemo* effective_memo() const {
    return shared_memo_ != nullptr ? shared_memo_ : memo_.get();
  }

  double sigma_;
  similarity::SimilarityOptions options_;
  ClassifierOptions classifier_options_;
  ClassifierMetrics metrics_;
  std::map<std::string, const dtd::Dtd*> dtds_;
  /// Always holds exactly one (eagerly built) evaluator per entry of
  /// `dtds_` — maintained by the mutating entry points, never from const
  /// methods.
  std::map<std::string, std::unique_ptr<similarity::SimilarityEvaluator>>
      evaluators_;
  /// Shared across every evaluator, every document and every batch
  /// worker; null when `enable_score_cache` is off or an external cache
  /// was supplied.
  std::unique_ptr<similarity::SubtreeScoreCache> cache_;
  /// Externally owned process-wide cache (ClassifierOptions::shared_cache)
  /// — takes precedence over `cache_`; null when not sharing.
  similarity::SubtreeScoreCache* shared_cache_ = nullptr;
  /// Owned classification memo; null when disabled or sharing.
  std::unique_ptr<ClassificationMemo> memo_;
  /// Externally owned process-wide memo — takes precedence over `memo_`.
  ClassificationMemo* shared_memo_ = nullptr;
  /// Epoch of the current DTD-set + σ state, re-drawn (globally unique)
  /// by every mutating entry point through `AdvanceSetEpoch`; the memo
  /// key's first component.
  uint64_t set_epoch_ = 0;
};

}  // namespace dtdevolve::classify

#endif  // DTDEVOLVE_CLASSIFY_CLASSIFIER_H_
