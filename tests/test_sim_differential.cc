// Differential test: the production set-associative cache against a
// deliberately naive reference model (tag vectors + explicit LRU lists),
// driven by randomized traces.  Any divergence in hit/miss/writeback
// behaviour or final contents fails the fuzz.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "sim/cache.h"
#include "util/rng.h"

namespace nanocache::sim {
namespace {

/// Straight-line reference implementation of a write-back, write-allocate
/// LRU cache.  Clarity over speed; no shared code with the real one.
class ReferenceCache {
 public:
  ReferenceCache(std::uint64_t size, std::uint32_t block, std::uint32_t assoc)
      : block_(block),
        assoc_(assoc),
        num_sets_(size / (static_cast<std::uint64_t>(block) * assoc)),
        sets_(num_sets_) {}

  struct Outcome {
    bool hit = false;
    bool writeback = false;
  };

  Outcome access(std::uint64_t address, bool is_write) {
    const std::uint64_t blk = address / block_;
    auto& set = sets_[blk % num_sets_];
    Outcome out;
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->block == blk) {
        out.hit = true;
        it->dirty = it->dirty || is_write;
        // Move to MRU position.
        set.splice(set.begin(), set, it);
        return out;
      }
    }
    if (set.size() == assoc_) {
      if (set.back().dirty) out.writeback = true;
      set.pop_back();
    }
    set.push_front(Entry{blk, is_write});
    return out;
  }

  bool contains(std::uint64_t address) const {
    const std::uint64_t blk = address / block_;
    const auto& set = sets_[blk % num_sets_];
    return std::any_of(set.begin(), set.end(),
                       [&](const Entry& e) { return e.block == blk; });
  }

 private:
  struct Entry {
    std::uint64_t block;
    bool dirty;
  };
  std::uint64_t block_;
  std::uint32_t assoc_;
  std::uint64_t num_sets_;
  std::vector<std::list<Entry>> sets_;
};

struct Geometry {
  std::uint64_t size;
  std::uint32_t block;
  std::uint32_t assoc;
};

class DifferentialFuzz : public ::testing::TestWithParam<Geometry> {};

TEST_P(DifferentialFuzz, LruAgreesWithReferenceOnRandomTraces) {
  const auto g = GetParam();
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    SetAssociativeCache dut(g.size, g.block, g.assoc);
    ReferenceCache ref(g.size, g.block, g.assoc);
    Rng rng(seed);
    // Footprint ~4x the cache: plenty of capacity and conflict misses.
    const std::uint64_t footprint = g.size * 4;
    for (int i = 0; i < 30000; ++i) {
      const std::uint64_t addr = rng.below(footprint) & ~7ull;
      const bool is_write = rng.uniform() < 0.3;
      const auto d = dut.access(addr, is_write);
      const auto r = ref.access(addr, is_write);
      ASSERT_EQ(d.hit, r.hit) << "seed " << seed << " step " << i;
      ASSERT_EQ(d.writeback, r.writeback) << "seed " << seed << " step " << i;
    }
    // Final contents agree on a sample of the footprint.
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t addr = rng.below(footprint) & ~7ull;
      ASSERT_EQ(dut.contains(addr), ref.contains(addr)) << addr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DifferentialFuzz,
    ::testing::Values(Geometry{1024, 32, 1}, Geometry{1024, 32, 2},
                      Geometry{4096, 64, 4}, Geometry{8192, 32, 8},
                      Geometry{2048, 64, 2}, Geometry{512, 32, 16}),
    [](const auto& info) {
      return "s" + std::to_string(info.param.size) + "b" +
             std::to_string(info.param.block) + "w" +
             std::to_string(info.param.assoc);
    });

}  // namespace
}  // namespace nanocache::sim
