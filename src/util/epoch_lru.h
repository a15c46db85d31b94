#ifndef DTDEVOLVE_UTIL_EPOCH_LRU_H_
#define DTDEVOLVE_UTIL_EPOCH_LRU_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace dtdevolve::util {

/// Shard count of every `EpochLru` (each shard has its own mutex and
/// its own slice of the cost budget).
inline constexpr size_t kEpochLruShards = 16;

/// Totals of an `EpochLru` since construction (or the last `Clear`).
struct EpochLruStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Entries dropped by LRU pressure.
  uint64_t evictions = 0;
  /// Entries freed because their epoch was released.
  uint64_t released = 0;
  /// Entries held right now.
  uint64_t entries = 0;
  /// Summed cost of the entries held right now.
  uint64_t bytes = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Sharded, mutex-striped, cost-bounded LRU map whose keys carry an
/// `epoch` (a `uint64_t` member): the storage behind the subtree score
/// cache and the classification memo. Each shard evicts least recently
/// used entries once its summed cost passes `max_cost_per_shard`, and
/// additionally threads every entry onto a per-epoch chain, so
/// `ReleaseEpoch` frees exactly the entries of one epoch in time
/// proportional to their number — no scan of the map.
///
/// `Traits` supplies `static size_t Hash(const Key&)` (the index hash)
/// and `static size_t Shard(const Key&)` (reduced modulo the shard
/// count). The caller accounts hits, misses and evictions on its own
/// metrics from the return values.
///
/// Thread-safety: every entry point is safe for concurrent use; each
/// shard has its own mutex.
template <typename Key, typename Value, typename Traits>
class EpochLru {
 public:
  static constexpr size_t kNumShards = kEpochLruShards;

  explicit EpochLru(size_t max_cost_per_shard)
      : max_cost_per_shard_(max_cost_per_shard) {}

  EpochLru(const EpochLru&) = delete;
  EpochLru& operator=(const EpochLru&) = delete;

  /// True and `*out` filled on a hit; counts the hit or miss.
  bool Lookup(const Key& key, Value* out) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return false;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    *out = it->second->value;
    ++shard.hits;
    return true;
  }

  /// Inserts (or refreshes) `key` at `cost`, evicting LRU entries beyond
  /// the shard's budget (never the last one). Returns how many entries
  /// were evicted.
  uint64_t Insert(const Key& key, const Value& value, size_t cost) {
    Shard& shard = ShardFor(key);
    uint64_t evicted = 0;
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      Entry& entry = *it->second;
      shard.bytes -= entry.cost;
      entry.value = value;
      entry.cost = cost;
      shard.bytes += cost;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, value, cost});
      shard.index.emplace(key, shard.lru.begin());
      Link(shard, &shard.lru.front());
      shard.bytes += cost;
    }
    while (shard.bytes > max_cost_per_shard_ && shard.lru.size() > 1) {
      Erase(shard, std::prev(shard.lru.end()));
      ++shard.evictions;
      ++evicted;
    }
    return evicted;
  }

  /// Frees every entry whose key carries `epoch`, leaving all other
  /// entries and their LRU order untouched. Returns how many were freed.
  uint64_t ReleaseEpoch(uint64_t epoch) {
    uint64_t freed = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto head = shard.epochs.find(epoch);
      if (head == shard.epochs.end()) continue;
      Entry* entry = head->second;
      shard.epochs.erase(head);
      while (entry != nullptr) {
        Entry* next = entry->epoch_next;
        auto it = shard.index.find(entry->key);
        shard.bytes -= entry->cost;
        shard.lru.erase(it->second);
        shard.index.erase(it);
        ++shard.released;
        ++freed;
        entry = next;
      }
    }
    return freed;
  }

  /// Entries currently held under `epoch`.
  uint64_t EntriesOfEpoch(uint64_t epoch) const {
    uint64_t count = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto head = shard.epochs.find(epoch);
      if (head == shard.epochs.end()) continue;
      for (const Entry* entry = head->second; entry != nullptr;
           entry = entry->epoch_next) {
        ++count;
      }
    }
    return count;
  }

  /// Drops every entry and resets the statistics.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.index.clear();
      shard.epochs.clear();
      shard.lru.clear();
      shard.bytes = 0;
      shard.hits = 0;
      shard.misses = 0;
      shard.evictions = 0;
      shard.released = 0;
    }
  }

  EpochLruStats GetStats() const {
    EpochLruStats stats;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      stats.hits += shard.hits;
      stats.misses += shard.misses;
      stats.evictions += shard.evictions;
      stats.released += shard.released;
      stats.entries += shard.index.size();
      stats.bytes += shard.bytes;
    }
    return stats;
  }

 private:
  struct Entry {
    Key key;
    Value value;
    size_t cost = 0;
    /// Neighbours on the shard's chain of entries with the same epoch.
    Entry* epoch_prev = nullptr;
    Entry* epoch_next = nullptr;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const { return Traits::Hash(key); }
  };
  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used. List nodes never move, so the epoch
    /// chains can link entries by address.
    std::list<Entry> lru;
    std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash>
        index;
    /// Epoch → head of its chain.
    std::unordered_map<uint64_t, Entry*> epochs;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t released = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[Traits::Shard(key) % kNumShards];
  }

  static void Link(Shard& shard, Entry* entry) {
    auto [head, inserted] = shard.epochs.try_emplace(entry->key.epoch, entry);
    if (inserted) return;
    entry->epoch_next = head->second;
    head->second->epoch_prev = entry;
    head->second = entry;
  }

  static void Unlink(Shard& shard, Entry* entry) {
    if (entry->epoch_next != nullptr) {
      entry->epoch_next->epoch_prev = entry->epoch_prev;
    }
    if (entry->epoch_prev != nullptr) {
      entry->epoch_prev->epoch_next = entry->epoch_next;
    } else if (entry->epoch_next != nullptr) {
      shard.epochs[entry->key.epoch] = entry->epoch_next;
    } else {
      shard.epochs.erase(entry->key.epoch);
    }
  }

  void Erase(Shard& shard, typename std::list<Entry>::iterator it) {
    Unlink(shard, &*it);
    shard.bytes -= it->cost;
    shard.index.erase(it->key);
    shard.lru.erase(it);
  }

  size_t max_cost_per_shard_;
  std::array<Shard, kNumShards> shards_;
};

}  // namespace dtdevolve::util

#endif  // DTDEVOLVE_UTIL_EPOCH_LRU_H_
