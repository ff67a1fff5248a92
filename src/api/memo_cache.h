// Content-keyed memoization cache for the batched evaluation service.
//
// Keys are canonical strings describing a sub-evaluation's full structural
// identity (model identity + knobs + grid fingerprint + scheme + target
// bits), so two requests that would run the same computation share one
// result.  Values are immutable shared_ptrs: a hit hands back the exact
// object the miss path stored, which makes the "hit is bitwise-equal to
// miss" guarantee trivial.
//
// Concurrency: the entry map is lock-striped into 16 shards selected by
// the key hash, so concurrent lookups on distinct keys almost never
// contend.  The compute callback runs OUTSIDE any lock so slow model
// evaluations don't serialize the pool.  Two threads racing on the same
// key may both compute; the first insert wins
// and both receive the winning (deterministic, bitwise-identical) value.
// Hit/miss counters are relaxed per-shard atomics folded into one Stats
// snapshot — they are timing-dependent and feed reporting, never results.
// A snapshot taken concurrently with lookups is approximately consistent
// (each shard's pair is read without stopping traffic); every completed
// lookup is counted exactly once.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace nanocache::api {

class MemoCache {
 public:
  /// Snapshot of the cache's counters summed across shards.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
  };

  /// Lock stripes; a power of two, so the key hash masks cleanly.
  static constexpr std::size_t kShards = 16;

  /// Return the cached value for `key`, or run `compute`, publish its
  /// result, and return it.  `T` must match the type stored under `key`;
  /// callers namespace keys with a type tag prefix ("eval|", "opt|", ...)
  /// so a collision across types is impossible by construction.
  template <typename T>
  std::shared_ptr<const T> get_or_compute(
      const std::string& key,
      const std::function<std::shared_ptr<const T>()>& compute) {
    if (auto hit = find<T>(key)) return hit;
    return put<T>(key, compute());
  }

  /// The cached value for `key`, or nullptr (counted as a hit or a miss,
  /// like get_or_compute's lookup).  For callers that compute several
  /// entries in one pass and then put() each of them.
  template <typename T>
  std::shared_ptr<const T> find(const std::string& key) {
    return std::static_pointer_cast<const T>(lookup(key));
  }

  /// Publish `value` under `key` unless another thread got there first;
  /// returns the entry that ended up in the cache.
  template <typename T>
  std::shared_ptr<const T> put(const std::string& key,
                               std::shared_ptr<const T> value) {
    return std::static_pointer_cast<const T>(publish(key, std::move(value)));
  }

  Stats stats() const;
  std::size_t hits() const { return stats().hits; }
  std::size_t misses() const { return stats().misses; }
  std::size_t entries() const { return stats().entries; }
  std::size_t shard_count() const { return kShards; }

 private:
  /// One lock stripe.  Cache-line aligned so one shard's mutex traffic
  /// never invalidates a neighbour's counters.
  struct alignas(64) Shard {
    std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<const void>> entries;
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> misses{0};
  };

  Shard& shard_for(const std::string& key) const {
    return shards_[std::hash<std::string>{}(key) & (kShards - 1)];
  }

  /// nullptr on miss (miss counter bumped); the stored value on hit.
  std::shared_ptr<const void> lookup(const std::string& key);

  /// Insert `value` unless another thread won the race; returns the entry
  /// that ended up (or already was) in the cache.
  std::shared_ptr<const void> publish(const std::string& key,
                                      std::shared_ptr<const void> value);

  mutable std::array<Shard, kShards> shards_;
};

}  // namespace nanocache::api
