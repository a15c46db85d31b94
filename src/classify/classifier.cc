#include "classify/classifier.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>

#include "util/thread_pool.h"
#include "validate/validator.h"

namespace dtdevolve::classify {

namespace {

/// Float slack of the pruning cutoff: an evaluation is skipped only when
/// its bound is strictly below `best − kPruneSlack`, so bound-vs-exact
/// rounding can never prune the true winner — a pruned DTD's exact score
/// is strictly below the best, which also keeps it out of the
/// equal-score tie-break entirely.
constexpr double kPruneSlack = 1e-9;

/// One DTD's exact score of either document type; a DOM document reads
/// the shared cache through its fingerprint index, an arena document
/// through the fingerprints its elements carry.
double Score(const similarity::SimilarityEvaluator& evaluator,
             const xml::Document& doc,
             const similarity::SubtreeFingerprints* fingerprints) {
  return evaluator.DocumentSimilarity(doc, fingerprints);
}

double Score(const similarity::SimilarityEvaluator& evaluator,
             const xml::ArenaDocument& doc,
             const similarity::SubtreeFingerprints* /*fingerprints*/) {
  return evaluator.DocumentSimilarity(doc);
}

}  // namespace

Classifier::Classifier(double sigma, similarity::SimilarityOptions options,
                       ClassifierOptions classifier_options)
    : sigma_(sigma),
      options_(options),
      classifier_options_(classifier_options),
      set_epoch_(NextClassifierSetEpoch()) {
  if (classifier_options_.enable_score_cache) {
    if (classifier_options_.shared_cache != nullptr) {
      shared_cache_ = classifier_options_.shared_cache;
    } else if (classifier_options_.score_cache_bytes > 0) {
      similarity::SubtreeScoreCache::Config config;
      config.capacity_bytes = classifier_options_.score_cache_bytes;
      cache_ = std::make_unique<similarity::SubtreeScoreCache>(config);
    }
  }
  if (classifier_options_.enable_classification_memo) {
    if (classifier_options_.shared_memo != nullptr) {
      shared_memo_ = classifier_options_.shared_memo;
    } else if (classifier_options_.classification_memo_bytes > 0) {
      ClassificationMemo::Config config;
      config.capacity_bytes = classifier_options_.classification_memo_bytes;
      memo_ = std::make_unique<ClassificationMemo>(config);
    }
  }
}

Classifier::~Classifier() {
  if (ClassificationMemo* memo = effective_memo()) {
    memo->ReleaseEpoch(set_epoch_);
  }
  // The evaluators release their cache epochs as they go, which must
  // happen while an owned cache is still alive.
  evaluators_.clear();
}

void Classifier::AdvanceSetEpoch() {
  if (ClassificationMemo* memo = effective_memo()) {
    memo->ReleaseEpoch(set_epoch_);
  }
  set_epoch_ = NextClassifierSetEpoch();
}

void Classifier::set_metrics(const ClassifierMetrics& metrics) {
  metrics_ = metrics;
  // Cache traffic counters are installed only on an owned cache: a shared
  // cache is wired once by its owner, and letting every sharing
  // classifier re-install its own counters would clobber the others'.
  if (cache_ != nullptr) {
    cache_->set_metrics(metrics.cache_hits, metrics.cache_misses,
                        metrics.cache_evictions);
  }
  // Same owned-only rule for the memo.
  if (memo_ != nullptr) {
    memo_->set_metrics(metrics.memo_hits, metrics.memo_misses,
                       metrics.memo_evictions);
  }
}

void Classifier::AddDtd(const std::string& name, const dtd::Dtd* dtd) {
  assert(dtd != nullptr);
  AdvanceSetEpoch();
  dtds_[name] = dtd;
  auto evaluator =
      std::make_unique<similarity::SimilarityEvaluator>(*dtd, options_);
  evaluator->set_shared_cache(effective_cache());
  evaluators_[name] = std::move(evaluator);
}

bool Classifier::RemoveDtd(const std::string& name) {
  AdvanceSetEpoch();
  evaluators_.erase(name);
  return dtds_.erase(name) > 0;
}

void Classifier::Invalidate(const std::string& name) {
  auto it = dtds_.find(name);
  if (it == dtds_.end()) return;
  // Like the per-evaluator epoch, the set-epoch re-draw is the memo
  // invalidation: outcomes scored against the old declarations are
  // unreachable from here on, and freed.
  AdvanceSetEpoch();
  // The fresh evaluator draws a fresh epoch, so every shared-cache entry
  // of the old evaluator is unreachable from here on — epoch keying is
  // the invalidation — and the old evaluator frees them as it goes.
  auto evaluator = std::make_unique<similarity::SimilarityEvaluator>(
      *it->second, options_);
  evaluator->set_shared_cache(effective_cache());
  evaluators_[name] = std::move(evaluator);
}

void Classifier::InvalidateAll() {
  AdvanceSetEpoch();
  for (const auto& [name, dtd] : dtds_) {
    auto evaluator =
        std::make_unique<similarity::SimilarityEvaluator>(*dtd, options_);
    evaluator->set_shared_cache(effective_cache());
    evaluators_[name] = std::move(evaluator);
  }
}

std::vector<std::string> Classifier::DtdNames() const {
  std::vector<std::string> names;
  names.reserve(dtds_.size());
  for (const auto& [name, dtd] : dtds_) names.push_back(name);
  return names;
}

const similarity::SimilarityEvaluator& Classifier::EvaluatorFor(
    const std::string& name) const {
  auto it = evaluators_.find(name);
  assert(it != evaluators_.end());
  return *it->second;
}

Classifier::Clock::time_point Classifier::ScoreStart() const {
  // The clock is read only when someone actually installed a histogram,
  // so the uninstrumented hot path pays nothing.
  return metrics_.score_seconds != nullptr ? Clock::now()
                                           : Clock::time_point();
}

void Classifier::CountScored(Clock::time_point start) const {
  if (metrics_.documents_scored != nullptr) {
    metrics_.documents_scored->Increment();
  }
  if (metrics_.score_seconds != nullptr) {
    metrics_.score_seconds->Observe(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
}

template <typename DocumentT>
ClassificationOutcome Classifier::ScoreAndMemoize(
    const DocumentT& doc, const similarity::SubtreeFingerprints* fingerprints,
    const std::optional<ClassificationMemo::Key>& memo_key,
    Clock::time_point start) const {
  ClassificationOutcome outcome;
  outcome.scores.resize(dtds_.size());

  // The root content symbols feed every DTD's score bound.
  const bool prune = classifier_options_.enable_pruning && dtds_.size() > 1;
  std::vector<int32_t> root_symbol_ids;
  if (prune && doc.has_root()) {
    root_symbol_ids = validate::ContentSymbolIds(doc.root());
  }

  struct Candidate {
    size_t index = 0;  // position in name order == outcome.scores slot
    const std::string* name = nullptr;
    const similarity::SimilarityEvaluator* evaluator = nullptr;
    double bound = 0.0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(dtds_.size());
  {
    size_t index = 0;
    for (const auto& [name, dtd] : dtds_) {
      Candidate c;
      c.index = index++;
      c.name = &name;
      c.evaluator = &EvaluatorFor(name);
      c.bound = prune ? c.evaluator->ScoreUpperBound(doc, root_symbol_ids)
                      : 0.0;
      candidates.push_back(c);
    }
  }
  if (prune) {
    // Highest bound first; names break ties so the visit order (and with
    // it which equal-bound DTD seeds `best`) is deterministic.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       if (a.bound != b.bound) return a.bound > b.bound;
                       return *a.name < *b.name;
                     });
  }

  const std::string* best_name = nullptr;
  double best_score = 0.0;
  for (const Candidate& c : candidates) {
    // Never prune before a first exact score exists; afterwards skip any
    // DTD whose bound cannot beat it. σ is deliberately not part of the
    // cutoff: the best sub-σ score must still be reported exactly. With
    // pruning disabled every bound is a meaningless 0.0, so the cutoff
    // must not fire at all — every DTD gets an exact evaluation.
    if (prune && best_name != nullptr && c.bound < best_score - kPruneSlack) {
      outcome.scores[c.index] = {*c.name, c.bound, /*pruned=*/true};
      if (metrics_.evaluations_pruned != nullptr) {
        metrics_.evaluations_pruned->Increment();
      }
      continue;
    }
    double score = Score(*c.evaluator, doc, fingerprints);
    if (metrics_.similarity_evaluations != nullptr) {
      metrics_.similarity_evaluations->Increment();
    }
    outcome.scores[c.index] = {*c.name, score, /*pruned=*/false};
    // Highest score wins; among equal best scores the lexicographically
    // smallest name wins. Spelled out so the rule holds whatever order
    // the DTDs are visited in.
    if (best_name == nullptr || score > best_score ||
        (score == best_score && *c.name < *best_name)) {
      best_score = score;
      best_name = c.name;
    }
  }
  if (best_name != nullptr) {
    outcome.dtd_name = *best_name;
    outcome.similarity = best_score;
  }
  outcome.classified =
      !outcome.dtd_name.empty() && outcome.similarity >= sigma_;
  if (memo_key.has_value()) effective_memo()->Insert(*memo_key, outcome);
  CountScored(start);
  return outcome;
}

ClassificationOutcome Classifier::Classify(const xml::Document& doc) const {
  const Clock::time_point start = ScoreStart();
  // The subtree fingerprints feed the shared cache and the memo key; a
  // DOM tree has to be indexed for them once per document.
  ClassificationMemo* memo = effective_memo();
  std::optional<similarity::SubtreeFingerprints> fingerprints;
  if ((effective_cache() != nullptr || memo != nullptr) && doc.has_root()) {
    fingerprints.emplace(doc.root());
  }
  const similarity::SubtreeFingerprints* fingerprints_ptr =
      effective_cache() != nullptr && fingerprints ? &*fingerprints : nullptr;

  // Memo probe: within one set-epoch, equal root fingerprints imply an
  // identical outcome against every DTD — replay it and skip scoring.
  std::optional<ClassificationMemo::Key> memo_key;
  if (memo != nullptr && fingerprints) {
    const similarity::SubtreeStats* root_stats =
        fingerprints->Find(&doc.root());
    if (root_stats != nullptr) {
      memo_key = ClassificationMemo::Key{set_epoch_, root_stats->fp_hi,
                                         root_stats->fp_lo};
      ClassificationOutcome outcome;
      if (memo->Lookup(*memo_key, &outcome)) {
        CountScored(start);
        return outcome;
      }
    }
  }
  return ScoreAndMemoize(doc, fingerprints_ptr, memo_key, start);
}

std::optional<ClassificationMemo::Key> Classifier::ArenaMemoKey(
    const xml::ArenaDocument& doc) const {
  if (effective_memo() == nullptr || !doc.has_root()) return std::nullopt;
  return ClassificationMemo::Key{set_epoch_, doc.root().fp_hi,
                                 doc.root().fp_lo};
}

ClassificationOutcome Classifier::Classify(
    const xml::ArenaDocument& doc) const {
  const Clock::time_point start = ScoreStart();
  if (std::optional<ClassificationOutcome> replayed = MemoProbe(doc)) {
    return *std::move(replayed);
  }
  return ScoreAndMemoize(doc, nullptr, ArenaMemoKey(doc), start);
}

std::optional<ClassificationOutcome> Classifier::MemoProbe(
    const xml::ArenaDocument& doc) const {
  const std::optional<ClassificationMemo::Key> key = ArenaMemoKey(doc);
  ClassificationOutcome outcome;
  if (!key || !effective_memo()->Lookup(*key, &outcome)) return std::nullopt;
  if (metrics_.documents_scored != nullptr) {
    metrics_.documents_scored->Increment();
  }
  return outcome;
}

std::vector<ClassificationOutcome> Classifier::ClassifyMisses(
    const std::vector<const xml::ArenaDocument*>& docs,
    util::ThreadPool* pool) const {
  std::vector<ClassificationOutcome> outcomes(docs.size());
  auto score = [&](size_t i) {
    outcomes[i] = ScoreAndMemoize(*docs[i], nullptr, ArenaMemoKey(*docs[i]),
                                  ScoreStart());
  };
  if (pool == nullptr) {
    for (size_t i = 0; i < docs.size(); ++i) score(i);
  } else {
    pool->ParallelFor(docs.size(), score);
  }
  return outcomes;
}

std::vector<ClassificationOutcome> Classifier::ClassifyBatch(
    const std::vector<xml::Document>& docs, size_t jobs) const {
  std::vector<ClassificationOutcome> outcomes(docs.size());
  util::ParallelFor(docs.size(), jobs,
                    [&](size_t i) { outcomes[i] = Classify(docs[i]); });
  return outcomes;
}

std::vector<ClassificationOutcome> Classifier::ClassifyBatch(
    const std::vector<const xml::Document*>& docs, size_t jobs) const {
  std::vector<ClassificationOutcome> outcomes(docs.size());
  util::ParallelFor(docs.size(), jobs,
                    [&](size_t i) { outcomes[i] = Classify(*docs[i]); });
  return outcomes;
}

std::vector<ClassificationOutcome> Classifier::ClassifyBatch(
    const std::vector<const xml::Document*>& docs,
    util::ThreadPool* pool) const {
  std::vector<ClassificationOutcome> outcomes(docs.size());
  auto score = [&](size_t i) { outcomes[i] = Classify(*docs[i]); };
  if (pool == nullptr) {
    for (size_t i = 0; i < docs.size(); ++i) score(i);
  } else {
    pool->ParallelFor(docs.size(), score);
  }
  return outcomes;
}

ClassificationOutcome Classifier::ClassifyAmong(
    const xml::Document& doc, const std::vector<std::string>& names) const {
  ClassificationOutcome outcome;
  const bool prune = classifier_options_.enable_pruning;
  std::vector<int32_t> root_symbol_ids;
  if (prune && doc.has_root()) {
    root_symbol_ids = validate::ContentSymbolIds(doc.root());
  }
  // Built on the first exact score, then shared by every later DTD.
  std::optional<similarity::SubtreeFingerprints> fingerprints;
  const std::string* best_name = nullptr;
  double best_score = 0.0;
  for (const std::string& name : names) {
    if (dtds_.find(name) == dtds_.end()) continue;
    const similarity::SimilarityEvaluator& evaluator = EvaluatorFor(name);
    // A DTD that provably cannot reach σ cannot be the winner of a
    // classified outcome, and nothing else of an unclassified one is
    // used; the slack keeps bound-vs-exact rounding from skipping a
    // DTD that scores exactly σ.
    if (prune && evaluator.ScoreUpperBound(doc, root_symbol_ids) <
                     sigma_ - kPruneSlack) {
      if (metrics_.evaluations_pruned != nullptr) {
        metrics_.evaluations_pruned->Increment();
      }
      continue;
    }
    if (!fingerprints && effective_cache() != nullptr && doc.has_root()) {
      fingerprints.emplace(doc.root());
    }
    const double score = evaluator.DocumentSimilarity(
        doc, fingerprints ? &*fingerprints : nullptr);
    if (metrics_.similarity_evaluations != nullptr) {
      metrics_.similarity_evaluations->Increment();
    }
    // The tie-break of `Classify`.
    if (best_name == nullptr || score > best_score ||
        (score == best_score && name < *best_name)) {
      best_score = score;
      best_name = &name;
    }
  }
  if (best_name != nullptr) {
    outcome.dtd_name = *best_name;
    outcome.similarity = best_score;
  }
  outcome.classified = best_name != nullptr && best_score >= sigma_;
  if (metrics_.documents_scored != nullptr) {
    metrics_.documents_scored->Increment();
  }
  return outcome;
}

std::vector<ClassificationOutcome> Classifier::ClassifyBatchAmong(
    const std::vector<const xml::Document*>& docs,
    const std::vector<std::string>& names, util::ThreadPool* pool) const {
  std::vector<ClassificationOutcome> outcomes(docs.size());
  auto score = [&](size_t i) { outcomes[i] = ClassifyAmong(*docs[i], names); };
  if (pool == nullptr) {
    for (size_t i = 0; i < docs.size(); ++i) score(i);
  } else {
    pool->ParallelFor(docs.size(), score);
  }
  return outcomes;
}

std::optional<double> Classifier::Similarity(const xml::Document& doc,
                                             const std::string& name) const {
  if (dtds_.find(name) == dtds_.end()) return std::nullopt;
  return EvaluatorFor(name).DocumentSimilarity(doc);
}

std::optional<double> Classifier::ScoreBound(const xml::Document& doc,
                                             const std::string& name) const {
  if (dtds_.find(name) == dtds_.end()) return std::nullopt;
  std::vector<int32_t> root_symbol_ids;
  if (doc.has_root()) {
    root_symbol_ids = validate::ContentSymbolIds(doc.root());
  }
  return EvaluatorFor(name).ScoreUpperBound(doc, root_symbol_ids);
}

}  // namespace dtdevolve::classify
