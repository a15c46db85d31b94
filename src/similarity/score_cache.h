#ifndef DTDEVOLVE_SIMILARITY_SCORE_CACHE_H_
#define DTDEVOLVE_SIMILARITY_SCORE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "obs/metrics.h"
#include "similarity/triple.h"
#include "util/epoch_lru.h"
#include "xml/document.h"

namespace dtdevolve::similarity {

/// Structural fingerprint of one element subtree: a 128-bit hash over the
/// tag and the recursive content-symbol structure, plus the subtree's
/// element count. Two subtrees with equal fingerprints evaluate to the
/// same `Triple` against any declaration label, because the similarity
/// measure reads exactly the structure the fingerprint covers (tags and
/// the collapsed content-symbol sequence — attribute and text *values*
/// never influence a triple).
struct SubtreeStats {
  uint64_t fp_hi = 0;
  uint64_t fp_lo = 0;
  uint32_t element_count = 0;
};

/// Per-document fingerprint index: one `SubtreeStats` per element of the
/// subtree it was built from, computed in a single bottom-up pass. The
/// fingerprints are DTD-independent, so a classifier computes them once
/// per document and reuses them against every DTD in the set.
class SubtreeFingerprints {
 public:
  explicit SubtreeFingerprints(const xml::Element& root);

  /// Stats of `element`, or nullptr when it is not part of the indexed
  /// subtree.
  const SubtreeStats* Find(const xml::Element* element) const {
    auto it = map_.find(element);
    return it == map_.end() ? nullptr : &it->second;
  }

  size_t size() const { return map_.size(); }

 private:
  SubtreeStats Compute(const xml::Element& element);

  std::unordered_map<const xml::Element*, SubtreeStats> map_;
};

/// Sharded, mutex-striped LRU cache of `Triple` results keyed by
/// `(evaluator epoch, structural fingerprint, declaration label id)`. It
/// carries subtree evaluations *across documents* and across
/// `ClassifyBatch` workers: homogeneous streams repeat subtree structures
/// constantly, and a fingerprint hit replaces a full recursive alignment.
///
/// Epoch keying doubles as invalidation: every `SimilarityEvaluator`
/// draws a fresh epoch id at construction, so rebuilding an evaluator
/// (what `Classifier::Invalidate` does after evolution) makes all its old
/// entries unreachable, and the old evaluator releases them
/// (`ReleaseEpoch`) when it is destroyed or detached — the cache holds
/// only entries of live evaluators.
///
/// Thread-safety: all entry points are safe for concurrent use; each of
/// the 16 shards has its own mutex, so batch workers rarely contend.
class SubtreeScoreCache {
 public:
  struct Config {
    /// Approximate capacity; entries are evicted LRU per shard beyond it.
    size_t capacity_bytes = 64ull << 20;
    /// Subtrees with fewer elements are cheaper to recompute than to
    /// round-trip through a shard mutex; they are never cached.
    uint32_t min_subtree_elements = 4;
  };

  struct Key {
    uint64_t epoch = 0;
    uint64_t fp_hi = 0;
    uint64_t fp_lo = 0;
    int32_t label_id = -1;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Monotonic totals since construction (or the last `Clear`), plus
  /// the current entry count.
  using Stats = util::EpochLruStats;

  SubtreeScoreCache();
  explicit SubtreeScoreCache(Config config);

  SubtreeScoreCache(const SubtreeScoreCache&) = delete;
  SubtreeScoreCache& operator=(const SubtreeScoreCache&) = delete;

  /// True and `*out` filled on a hit; counts the hit/miss either way.
  bool Lookup(const Key& key, Triple* out);
  /// Inserts (or refreshes) `key`, evicting LRU entries beyond capacity.
  void Insert(const Key& key, const Triple& value);
  /// Frees every entry of evaluator epoch `epoch`; work is proportional
  /// to the entries freed.
  void ReleaseEpoch(uint64_t epoch) { lru_.ReleaseEpoch(epoch); }
  /// Entries currently held under `epoch`.
  uint64_t EntriesOfEpoch(uint64_t epoch) const {
    return lru_.EntriesOfEpoch(epoch);
  }
  /// Drops every entry and resets the statistics.
  void Clear() { lru_.Clear(); }

  Stats GetStats() const { return lru_.GetStats(); }
  const Config& config() const { return config_; }

  /// Optional `obs` counters bumped alongside the internal stats; any may
  /// be null. Install before concurrent use.
  void set_metrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Counter* evictions) {
    hits_counter_ = hits;
    misses_counter_ = misses;
    evictions_counter_ = evictions;
  }

 private:
  struct KeyTraits {
    static size_t Hash(const Key& key);
    /// fp_lo is already well mixed; fold in the label so one hot
    /// structure scored against many DTDs spreads over shards.
    static size_t Shard(const Key& key);
  };

  /// Approximate footprint of one entry (key + triple + list node + hash
  /// node + epoch links): the cost every entry is charged, so the byte
  /// capacity is an entry budget.
  static constexpr size_t kApproxEntryBytes = 160;

  Config config_;
  util::EpochLru<Key, Triple, KeyTraits> lru_;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
};

}  // namespace dtdevolve::similarity

#endif  // DTDEVOLVE_SIMILARITY_SCORE_CACHE_H_
