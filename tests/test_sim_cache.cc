// Correctness tests for the set-associative cache and two-level hierarchy:
// directed traces with known hit/miss outcomes, LRU semantics, writeback
// accounting and parameter validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/cache.h"
#include "sim/hierarchy.h"
#include "sim/trace.h"
#include "util/error.h"

namespace nanocache::sim {
namespace {

TEST(Cache, ColdMissThenHit) {
  SetAssociativeCache c(1024, 32, 2);
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x11f, false).hit);   // same 32B block
  EXPECT_FALSE(c.access(0x120, false).hit);  // next block
}

TEST(Cache, StatsCount) {
  SetAssociativeCache c(1024, 32, 2);
  c.access(0, false);
  c.access(0, false);
  c.access(32, false);
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().misses, 2u);
  EXPECT_NEAR(c.stats().miss_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, DirectMappedConflicts) {
  // 1 KB direct-mapped, 32 B blocks: 32 sets; addresses 0 and 1024 collide.
  SetAssociativeCache c(1024, 32, 1);
  EXPECT_FALSE(c.access(0, false).hit);
  EXPECT_FALSE(c.access(1024, false).hit);
  EXPECT_FALSE(c.access(0, false).hit);  // evicted by 1024
}

TEST(Cache, TwoWayAvoidsPairConflict) {
  SetAssociativeCache c(1024, 32, 2);
  EXPECT_FALSE(c.access(0, false).hit);
  EXPECT_FALSE(c.access(1024, false).hit);
  EXPECT_TRUE(c.access(0, false).hit);  // both fit in the 2-way set
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  // 2-way set: touch A, B, re-touch A, then C evicts B (not A).
  SetAssociativeCache c(1024, 32, 2);
  const std::uint64_t A = 0, B = 512, C = 1024;  // same set (32 sets? no:
  // 1024/(32*2)=16 sets; stride 512 = 16 blocks -> same set index 0)
  c.access(A, false);
  c.access(B, false);
  c.access(A, false);
  c.access(C, false);  // evicts B under LRU
  EXPECT_TRUE(c.contains(A));
  EXPECT_FALSE(c.contains(B));
  EXPECT_TRUE(c.contains(C));
}

TEST(Cache, WritebackOnDirtyEviction) {
  SetAssociativeCache c(1024, 32, 1);
  c.access(0, true);                       // dirty
  const auto r = c.access(1024, false);    // evicts dirty block 0
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.evicted_block, 0u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, NoWritebackOnCleanEviction) {
  SetAssociativeCache c(1024, 32, 1);
  c.access(0, false);
  const auto r = c.access(1024, false);
  EXPECT_FALSE(r.writeback);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, WriteHitMarksDirty) {
  SetAssociativeCache c(1024, 32, 1);
  c.access(0, false);  // clean fill
  c.access(0, true);   // write hit -> dirty
  const auto r = c.access(1024, false);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, ResetStatsKeepsContents) {
  SetAssociativeCache c(1024, 32, 2);
  c.access(0, false);
  c.reset_stats();
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_TRUE(c.access(0, false).hit);  // still resident
}

TEST(Cache, GeometryAccessors) {
  SetAssociativeCache c(8192, 64, 4);
  EXPECT_EQ(c.size_bytes(), 8192u);
  EXPECT_EQ(c.block_bytes(), 64u);
  EXPECT_EQ(c.associativity(), 4u);
  EXPECT_EQ(c.num_sets(), 32u);
}

TEST(Cache, ValidatesParameters) {
  EXPECT_THROW(SetAssociativeCache(1000, 32, 2), Error);   // size not pow2
  EXPECT_THROW(SetAssociativeCache(1024, 48, 2), Error);   // block not pow2
  EXPECT_THROW(SetAssociativeCache(1024, 32, 3), Error);   // assoc not pow2
  EXPECT_THROW(SetAssociativeCache(64, 64, 2), Error);     // smaller than set
}

TEST(Cache, FullyAssociativeWorks) {
  SetAssociativeCache c(256, 32, 8);  // one set, 8 ways
  EXPECT_EQ(c.num_sets(), 1u);
  for (int i = 0; i < 8; ++i) c.access(i * 32, false);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(c.contains(i * 32)) << i;
  c.access(8 * 32, false);  // one eviction
  int resident = 0;
  for (int i = 0; i <= 8; ++i) {
    if (c.contains(i * 32)) ++resident;
  }
  EXPECT_EQ(resident, 8);
}

// --- hierarchy ---------------------------------------------------------------

TEST(Hierarchy, InclusionOnFirstTouch) {
  TwoLevelHierarchy h(SetAssociativeCache(1024, 32, 2),
                      SetAssociativeCache(16 * 1024, 64, 8));
  h.access(0x1000, false);
  EXPECT_EQ(h.stats().references, 1u);
  EXPECT_EQ(h.stats().l1_misses, 1u);
  EXPECT_EQ(h.stats().l2_misses, 1u);
  EXPECT_EQ(h.stats().memory_accesses, 1u);
  EXPECT_TRUE(h.l1().contains(0x1000));
  EXPECT_TRUE(h.l2().contains(0x1000));
}

TEST(Hierarchy, L1HitTouchesNothingBelow) {
  TwoLevelHierarchy h(SetAssociativeCache(1024, 32, 2),
                      SetAssociativeCache(16 * 1024, 64, 8));
  h.access(0x1000, false);
  const auto before = h.stats().l2_accesses;
  h.access(0x1000, false);
  EXPECT_EQ(h.stats().l2_accesses, before);
  EXPECT_EQ(h.stats().l1_misses, 1u);
}

TEST(Hierarchy, L1MissL2Hit) {
  TwoLevelHierarchy h(SetAssociativeCache(1024, 32, 1),
                      SetAssociativeCache(16 * 1024, 64, 8));
  h.access(0, false);
  h.access(1024, false);  // evicts 0 from L1; both now in L2
  h.access(0, false);     // L1 miss, L2 hit
  EXPECT_EQ(h.stats().l1_misses, 3u);
  EXPECT_EQ(h.stats().l2_misses, 2u);
}

TEST(Hierarchy, DirtyL1VictimWritesIntoL2) {
  TwoLevelHierarchy h(SetAssociativeCache(1024, 32, 1),
                      SetAssociativeCache(16 * 1024, 64, 8));
  h.access(0, true);      // dirty in L1
  h.access(1024, false);  // evicts dirty 0 -> write to L2
  EXPECT_EQ(h.stats().l1_writebacks, 1u);
  EXPECT_GE(h.stats().l2_accesses, 2u);
}

TEST(Hierarchy, LocalMissRatesComputed) {
  TwoLevelHierarchy h(SetAssociativeCache(1024, 32, 2),
                      SetAssociativeCache(16 * 1024, 64, 8));
  for (int i = 0; i < 100; ++i) {
    h.access(static_cast<std::uint64_t>(i) * 4096, false);
  }
  EXPECT_NEAR(h.stats().l1_miss_rate(), 1.0, 1e-12);
  EXPECT_NEAR(h.stats().l2_local_miss_rate(), 1.0, 1e-12);
}

/// Replays four consecutive 32-byte blocks forever.
class FourBlockLoop final : public TraceSource {
 public:
  Access next() override { return {(i_++ % 4) * 32, false}; }

 private:
  std::uint64_t i_ = 0;
};

TEST(Hierarchy, WarmupExcludedFromStats) {
  FourBlockLoop t;
  TwoLevelHierarchy h(SetAssociativeCache(1024, 32, 2),
                      SetAssociativeCache(16 * 1024, 64, 8));
  h.warmup(t, 4);
  EXPECT_EQ(h.stats().references, 0u);
  h.run(t, 4);
  EXPECT_EQ(h.stats().references, 4u);
  EXPECT_EQ(h.stats().l1_misses, 0u);  // everything warmed up
}

TEST(Hierarchy, RejectsIncompatibleBlocks) {
  EXPECT_THROW(TwoLevelHierarchy(SetAssociativeCache(1024, 64, 2),
                                 SetAssociativeCache(16 * 1024, 32, 8)),
               Error);
  EXPECT_THROW(TwoLevelHierarchy(SetAssociativeCache(32 * 1024, 32, 2),
                                 SetAssociativeCache(16 * 1024, 64, 8)),
               Error);
}

TEST(Hierarchy, EmptyStatsAreZeroRates) {
  HierarchyStats s;
  EXPECT_DOUBLE_EQ(s.l1_miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(s.l2_local_miss_rate(), 0.0);
}

// --- property: larger caches never miss more on a deterministic trace ------

class CacheSizeMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(CacheSizeMonotonicity, MissesNonIncreasingWithSize) {
  // Deterministic looping trace with footprint chosen by the parameter.
  const int blocks = 32 << GetParam();
  std::vector<Access> trace;
  for (int rep = 0; rep < 50; ++rep) {
    for (int b = 0; b < blocks; ++b) {
      trace.push_back({static_cast<std::uint64_t>(b) * 32, false});
    }
  }
  std::uint64_t prev_misses = ~0ull;
  for (std::uint64_t size = 1024; size <= 64 * 1024; size *= 2) {
    // LRU has the stack property on looping traces; FIFO would be exposed
    // to Belady's anomaly.
    SetAssociativeCache c(size, 32, 2);
    for (const auto& a : trace) c.access(a.address, a.is_write);
    EXPECT_LE(c.stats().misses, prev_misses) << "size=" << size;
    prev_misses = c.stats().misses;
  }
}

INSTANTIATE_TEST_SUITE_P(Footprints, CacheSizeMonotonicity,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

}  // namespace
}  // namespace nanocache::sim
