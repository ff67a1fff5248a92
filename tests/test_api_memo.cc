// The sharded MemoCache: its fixed shard count and concurrent
// lookup/publish semantics (pointer-identical values, exact hit+miss
// accounting).
#include "api/memo_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace nanocache::api {
namespace {

TEST(MemoCache, DefaultAndExplicitShardCounts) {
  EXPECT_EQ(MemoCache().shard_count(), MemoCache::kShards);
  EXPECT_EQ(MemoCache::kShards, 16u);
}

TEST(MemoCache, HitReturnsTheStoredPointer) {
  MemoCache cache;
  const auto first = cache.get_or_compute<int>(
      "eval|k", [] { return std::make_shared<const int>(7); });
  const auto second = cache.get_or_compute<int>(
      "eval|k", [] { return std::make_shared<const int>(99); });
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(*second, 7);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(MemoCache, ConcurrentLookupsAgreeAndCountExactly) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  constexpr int kRounds = 50;
  MemoCache cache;

  // got[t][k]: the value thread t observed for key k on its last round.
  std::vector<std::vector<std::shared_ptr<const int>>> got(
      kThreads, std::vector<std::shared_ptr<const int>>(kKeys));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          got[t][k] = cache.get_or_compute<int>(
              "eval|key" + std::to_string(k),
              [k] { return std::make_shared<const int>(k); });
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Racing first-inserts may compute a key twice, but everyone must end up
  // holding the one published object, with the right value.
  for (int k = 0; k < kKeys; ++k) {
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_NE(got[t][k], nullptr);
      EXPECT_EQ(*got[t][k], k);
      EXPECT_EQ(got[t][k].get(), got[0][k].get()) << "thread " << t
                                                  << " key " << k;
    }
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, static_cast<std::size_t>(kKeys));
  // Every completed lookup is exactly one hit or one miss.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::size_t>(kThreads) * kRounds * kKeys);
  EXPECT_GE(stats.misses, static_cast<std::size_t>(kKeys));
}

}  // namespace
}  // namespace nanocache::api
