#include "classify/classification_memo.h"

#include <algorithm>
#include <atomic>

#include "xml/fingerprint.h"

namespace dtdevolve::classify {

uint64_t NextClassifierSetEpoch() {
  // Starts at 1 so a zero epoch can never match a drawn one.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

size_t ClassificationMemo::KeyTraits::Hash(const Key& key) {
  uint64_t h = xml::FingerprintMix64(key.fp_hi, key.fp_lo);
  h = xml::FingerprintMix64(h, key.epoch);
  return static_cast<size_t>(h);
}

size_t ClassificationMemo::KeyTraits::Shard(const Key& key) {
  return static_cast<size_t>(
      (key.fp_lo ^ (key.epoch * 0xC2B2AE3D27D4EB4Full)) >> 56);
}

ClassificationMemo::ClassificationMemo() : ClassificationMemo(Config()) {}

ClassificationMemo::ClassificationMemo(Config config)
    : config_(config),
      lru_(std::max<size_t>(1024, config.capacity_bytes / util::kEpochLruShards)) {}

size_t ClassificationMemo::EntryCost(const ClassificationOutcome& outcome) {
  // Key + list node + hash node + outcome header, plus one ScoreEntry
  // (string + double + flag) per DTD of the set.
  size_t cost = 160;
  for (const ScoreEntry& entry : outcome.scores) {
    cost += 64 + entry.dtd_name.size();
  }
  cost += outcome.dtd_name.size();
  return cost;
}

bool ClassificationMemo::Lookup(const Key& key, ClassificationOutcome* out) {
  const bool hit = lru_.Lookup(key, out);
  obs::Counter* counter = hit ? hits_counter_ : misses_counter_;
  if (counter != nullptr) counter->Increment();
  return hit;
}

void ClassificationMemo::Insert(const Key& key,
                                const ClassificationOutcome& value) {
  const uint64_t evicted = lru_.Insert(key, value, EntryCost(value));
  if (evictions_counter_ != nullptr && evicted > 0) {
    evictions_counter_->Increment(evicted);
  }
}

}  // namespace dtdevolve::classify
