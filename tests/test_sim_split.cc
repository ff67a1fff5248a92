// Tests for the split-L1 extension: instruction-fetch generator, split
// hierarchy, the split-system energy model, and the util stats helpers
// they lean on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "core/explorer.h"
#include "energy/split_system.h"
#include "sim/generators.h"
#include "sim/hierarchy.h"
#include "util/error.h"
#include "util/stats.h"

namespace nanocache {
namespace {

// --- util stats ---------------------------------------------------------------

TEST(Stats, MeanStddevPercentile) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(math::mean(v), 3.0);
  EXPECT_NEAR(math::sample_stddev(v), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(math::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(math::percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(math::percentile(v, 0.5), 3.0);
}

TEST(Stats, DegenerateCases) {
  EXPECT_THROW(math::mean({}), Error);
  EXPECT_DOUBLE_EQ(math::sample_stddev({7.0}), 0.0);
  EXPECT_THROW(math::percentile({1.0}, 1.5), Error);
}

// --- instruction-fetch generator ------------------------------------------------

TEST(InstructionFetch, MostlySequential) {
  sim::InstructionFetchGenerator::Config cfg;
  sim::InstructionFetchGenerator g(cfg, 11);
  int sequential = 0;
  std::uint64_t prev = g.next().address;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto a = g.next().address;
    if (a == prev + 4) ++sequential;
    prev = a;
  }
  // Mean basic block of 8 -> ~7/8 of steps sequential.
  EXPECT_GT(static_cast<double>(sequential) / n, 0.75);
}

TEST(InstructionFetch, NeverWritesAndStaysInCode) {
  sim::InstructionFetchGenerator::Config cfg;
  cfg.base = 0x1000;
  cfg.code_bytes = 64 * 1024;
  sim::InstructionFetchGenerator g(cfg, 3);
  for (int i = 0; i < 20000; ++i) {
    const auto a = g.next();
    EXPECT_FALSE(a.is_write);
    EXPECT_GE(a.address, cfg.base);
    EXPECT_LT(a.address, cfg.base + cfg.code_bytes);
    EXPECT_EQ(a.address % 4, 0u);  // word-aligned fetches
  }
}

TEST(InstructionFetch, LoopTargetsCreateReuse) {
  sim::InstructionFetchGenerator::Config cfg;
  cfg.code_bytes = 1 << 20;
  sim::InstructionFetchGenerator g(cfg, 5);
  // An I-cache on the stream must hit far more than the footprint alone
  // would suggest: loops concentrate fetches.
  sim::SetAssociativeCache icache(16 * 1024, 32, 2);
  std::uint64_t misses = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (!icache.access(g.next().address, false).hit) ++misses;
  }
  EXPECT_LT(static_cast<double>(misses) / n, 0.12);
}

TEST(InstructionFetch, Validates) {
  sim::InstructionFetchGenerator::Config cfg;
  cfg.code_bytes = 1024;  // < 4KB
  EXPECT_THROW(sim::InstructionFetchGenerator(cfg, 1), Error);
  cfg = {};
  cfg.hot_targets = 0;
  EXPECT_THROW(sim::InstructionFetchGenerator(cfg, 1), Error);
}

// --- split hierarchy -------------------------------------------------------------

sim::SplitL1Hierarchy make_split() {
  return sim::SplitL1Hierarchy(sim::SetAssociativeCache(4096, 32, 2),
                               sim::SetAssociativeCache(4096, 32, 2),
                               sim::SetAssociativeCache(64 * 1024, 64, 8));
}

TEST(SplitHierarchy, SidesAreIndependent) {
  auto h = make_split();
  h.access_instruction(0x1000);
  EXPECT_TRUE(h.l1i().contains(0x1000));
  EXPECT_FALSE(h.l1d().contains(0x1000));
  h.access_data(0x1000, false);
  EXPECT_TRUE(h.l1d().contains(0x1000));
}

TEST(SplitHierarchy, SharedL2SeesBothMissStreams) {
  auto h = make_split();
  h.access_instruction(0x2000);
  h.access_data(0x3000, false);
  EXPECT_EQ(h.stats().l2_accesses, 2u);
  EXPECT_TRUE(h.l2().contains(0x2000));
  EXPECT_TRUE(h.l2().contains(0x3000));
}

TEST(SplitHierarchy, CrossSideL2Hit) {
  auto h = make_split();
  h.access_data(0x4000, false);       // brings the line into L2
  const auto before = h.stats().l2_misses;
  h.access_instruction(0x4000);       // I-side miss, L2 hit
  EXPECT_EQ(h.stats().l2_misses, before);
  EXPECT_EQ(h.stats().l1i_misses, 1u);
}

TEST(SplitHierarchy, DirtyDataVictimsReachL2) {
  sim::SplitL1Hierarchy h(sim::SetAssociativeCache(4096, 32, 2),
                          sim::SetAssociativeCache(1024, 32, 1),
                          sim::SetAssociativeCache(64 * 1024, 64, 8));
  h.access_data(0, true);
  h.access_data(1024, false);  // evicts dirty 0 into L2
  EXPECT_TRUE(h.l2().contains(0));
}

TEST(SplitHierarchy, StatsAndReset) {
  auto h = make_split();
  h.access_instruction(0);
  h.access_data(64, true);
  EXPECT_EQ(h.stats().instruction_refs, 1u);
  EXPECT_EQ(h.stats().data_refs, 1u);
  EXPECT_DOUBLE_EQ(h.stats().l1i_miss_rate(), 1.0);
  h.reset_stats();
  EXPECT_EQ(h.stats().instruction_refs, 0u);
  EXPECT_DOUBLE_EQ(h.stats().l1i_miss_rate(), 0.0);
}

TEST(SplitHierarchy, ValidatesGeometry) {
  EXPECT_THROW(
      sim::SplitL1Hierarchy(sim::SetAssociativeCache(64 * 1024, 32, 2),
                            sim::SetAssociativeCache(64 * 1024, 32, 2),
                            sim::SetAssociativeCache(64 * 1024, 64, 8)),
      Error);
}

// --- split-system energy model -----------------------------------------------------

TEST(SplitSystem, AmatBlendsSides) {
  core::Explorer ex;
  const auto& l1 = ex.l1_model(16 * 1024);
  const auto& l2 = ex.l2_model(1024 * 1024);
  energy::SplitMissRates miss;
  miss.instruction_fraction = 0.5;
  miss.l1i = 0.0;
  miss.l1d = 0.0;
  const energy::SplitMemorySystemModel sys(l1, l1, l2, miss);
  const cachemodel::ComponentAssignment k(tech::DeviceKnobs{0.35, 12.0});
  const auto m = sys.evaluate(k, k, k);
  // With zero L1 miss rates, AMAT is just the blended L1 hit time.
  EXPECT_NEAR(m.amat_s, l1.evaluate(k).access_time_s,
              m.amat_s * 1e-9);
}

TEST(SplitSystem, LeakageSumsThreeCaches) {
  core::Explorer ex;
  const auto& l1 = ex.l1_model(16 * 1024);
  const auto& l2 = ex.l2_model(512 * 1024);
  const energy::SplitMemorySystemModel sys(l1, l1, l2, {});
  const cachemodel::ComponentAssignment k(tech::DeviceKnobs{0.4, 13.0});
  const auto m = sys.evaluate(k, k, k);
  EXPECT_NEAR(m.leakage_w,
              2 * l1.evaluate(k).leakage_w + l2.evaluate(k).leakage_w,
              m.leakage_w * 1e-9);
}

TEST(SplitSystem, L2WeightMatchesDefinition) {
  core::Explorer ex;
  energy::SplitMissRates miss;
  miss.instruction_fraction = 0.25;
  miss.l1i = 0.02;
  miss.l1d = 0.08;
  const energy::SplitMemorySystemModel sys(ex.l1_model(16 * 1024),
                                           ex.l1_model(16 * 1024),
                                           ex.l2_model(512 * 1024), miss);
  EXPECT_NEAR(sys.l2_weight(), 0.25 * 0.02 + 0.75 * 0.08, 1e-12);
}

TEST(SplitSystem, Validates) {
  core::Explorer ex;
  energy::SplitMissRates bad;
  bad.instruction_fraction = 1.5;
  EXPECT_THROW(energy::SplitMemorySystemModel(ex.l1_model(16 * 1024),
                                              ex.l1_model(16 * 1024),
                                              ex.l2_model(512 * 1024), bad),
               Error);
}

}  // namespace
}  // namespace nanocache
