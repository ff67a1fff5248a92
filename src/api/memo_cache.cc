#include "api/memo_cache.h"

#include "util/metrics.h"

namespace nanocache::api {

MemoCache::Stats MemoCache::stats() const {
  Stats s;
  for (auto& shard : shards_) {
    s.hits += shard.hits.load(std::memory_order_relaxed);
    s.misses += shard.misses.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shard.mutex);
    s.entries += shard.entries.size();
  }
  return s;
}

std::shared_ptr<const void> MemoCache::lookup(const std::string& key) {
  // Process-wide observability counters aggregate across every MemoCache
  // instance; the per-shard counters stay the source of MemoStats.
  static auto& memo_hits =
      metrics::Registry::instance().counter("api.memo.hits");
  static auto& memo_misses =
      metrics::Registry::instance().counter("api.memo.misses");
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      memo_hits.add(1);
      return it->second;
    }
  }
  // Counters are relaxed atomics, so the miss increment no longer needs
  // the entry-map critical section: stats() reads never contend with the
  // lookup path.
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  memo_misses.add(1);
  return nullptr;
}

std::shared_ptr<const void> MemoCache::publish(
    const std::string& key, std::shared_ptr<const void> value) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto [it, inserted] = shard.entries.emplace(key, std::move(value));
  return it->second;
}

}  // namespace nanocache::api
