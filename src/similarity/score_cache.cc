#include "similarity/score_cache.h"

#include <algorithm>
#include <functional>
#include <string_view>

#include "util/string_util.h"
#include "xml/fingerprint.h"

namespace dtdevolve::similarity {

namespace {

// The fingerprint primitives live in xml/fingerprint.h so the streaming
// arena parser can absorb the identical sequence during its single pass.
using xml::FingerprintMix64;

inline uint64_t Mix64(uint64_t h, uint64_t v) { return FingerprintMix64(h, v); }

inline uint64_t TagToken(const xml::Element& element) {
  return xml::FingerprintTagToken(element.tag_id(), element.tag());
}

}  // namespace

SubtreeFingerprints::SubtreeFingerprints(const xml::Element& root) {
  map_.reserve(root.SubtreeElementCount());
  Compute(root);
}

SubtreeStats SubtreeFingerprints::Compute(const xml::Element& element) {
  xml::FingerprintAccumulator acc(TagToken(element));
  for (const auto& child : element.children()) {
    if (child->is_element()) {
      SubtreeStats sub = Compute(child->AsElement());
      acc.AbsorbElement(sub.fp_hi, sub.fp_lo, sub.element_count);
    } else {
      const auto& text = static_cast<const xml::Text&>(*child);
      if (IsBlank(text.value())) continue;
      acc.AbsorbText();
    }
  }
  acc.Close();
  SubtreeStats stats{acc.hi, acc.lo, acc.element_count};
  map_.emplace(&element, stats);
  return stats;
}

size_t SubtreeScoreCache::KeyTraits::Hash(const Key& key) {
  uint64_t h = Mix64(key.fp_hi, key.fp_lo);
  h = Mix64(h, key.epoch);
  h = Mix64(h, static_cast<uint64_t>(static_cast<uint32_t>(key.label_id)));
  return static_cast<size_t>(h);
}

size_t SubtreeScoreCache::KeyTraits::Shard(const Key& key) {
  const uint64_t label =
      static_cast<uint64_t>(static_cast<uint32_t>(key.label_id));
  return static_cast<size_t>((key.fp_lo ^ (label * 0xC2B2AE3D27D4EB4Full)) >>
                             56);
}

SubtreeScoreCache::SubtreeScoreCache() : SubtreeScoreCache(Config()) {}

SubtreeScoreCache::SubtreeScoreCache(Config config)
    : config_(config),
      lru_(std::max<size_t>(1, config.capacity_bytes /
                                   (util::kEpochLruShards * kApproxEntryBytes)) *
           kApproxEntryBytes) {}

bool SubtreeScoreCache::Lookup(const Key& key, Triple* out) {
  const bool hit = lru_.Lookup(key, out);
  obs::Counter* counter = hit ? hits_counter_ : misses_counter_;
  if (counter != nullptr) counter->Increment();
  return hit;
}

void SubtreeScoreCache::Insert(const Key& key, const Triple& value) {
  const uint64_t evicted = lru_.Insert(key, value, kApproxEntryBytes);
  if (evictions_counter_ != nullptr && evicted > 0) {
    evictions_counter_->Increment(evicted);
  }
}

}  // namespace dtdevolve::similarity
