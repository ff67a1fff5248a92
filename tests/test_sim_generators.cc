// Tests for the synthetic workload generators: determinism, footprint
// confinement, locality signatures, and mixing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "sim/generators.h"
#include "util/error.h"

namespace nanocache::sim {
namespace {

TEST(StrideGenerator, WalksFootprintAndWraps) {
  StrideGenerator g(0x1000, 64, 256, 0.0, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(g.next().address, 0x1000u + static_cast<std::uint64_t>(i) * 64);
  }
  EXPECT_EQ(g.next().address, 0x1000u);  // wrapped
}

TEST(StrideGenerator, WriteFractionRespected) {
  StrideGenerator g(0, 8, 1 << 20, 0.25, 7);
  int writes = 0;
  for (int i = 0; i < 10000; ++i) {
    if (g.next().is_write) ++writes;
  }
  EXPECT_NEAR(writes / 10000.0, 0.25, 0.02);
}

TEST(StrideGenerator, Validates) {
  EXPECT_THROW(StrideGenerator(0, 0, 100, 0.0, 1), Error);
  EXPECT_THROW(StrideGenerator(0, 64, 32, 0.0, 1), Error);
  EXPECT_THROW(StrideGenerator(0, 8, 100, 1.5, 1), Error);
}

TEST(WorkingSetGenerator, DeterministicForSeed) {
  WorkingSetGenerator::Config cfg;
  WorkingSetGenerator a(cfg, 42);
  WorkingSetGenerator b(cfg, 42);
  for (int i = 0; i < 1000; ++i) {
    const auto x = a.next();
    const auto y = b.next();
    EXPECT_EQ(x.address, y.address);
    EXPECT_EQ(x.is_write, y.is_write);
  }
}

TEST(WorkingSetGenerator, StaysInsideFootprint) {
  WorkingSetGenerator::Config cfg;
  cfg.base = 0x10000;
  cfg.footprint_bytes = 1 << 20;
  WorkingSetGenerator g(cfg, 5);
  for (int i = 0; i < 20000; ++i) {
    const auto a = g.next().address;
    EXPECT_GE(a, cfg.base);
    EXPECT_LT(a, cfg.base + cfg.footprint_bytes);
  }
}

TEST(WorkingSetGenerator, SequentialRuns) {
  WorkingSetGenerator::Config cfg;
  cfg.run_length = 4;
  WorkingSetGenerator g(cfg, 9);
  // Within a run, consecutive addresses differ by 8.
  const auto first = g.next().address;
  EXPECT_EQ(g.next().address, first + 8);
  EXPECT_EQ(g.next().address, first + 16);
  EXPECT_EQ(g.next().address, first + 24);
}

TEST(WorkingSetGenerator, SkewConcentratesTraffic) {
  // With strong skew, a small fraction of pages should absorb most
  // accesses.
  WorkingSetGenerator::Config cfg;
  cfg.footprint_bytes = 1 << 20;
  cfg.page_bytes = 4096;  // 256 pages
  cfg.zipf_s = 1.3;
  WorkingSetGenerator g(cfg, 13);
  std::map<std::uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[g.next().address / cfg.page_bytes];
  }
  std::vector<int> sorted;
  for (const auto& [page, c] : counts) sorted.push_back(c);
  std::sort(sorted.rbegin(), sorted.rend());
  int top16 = 0;
  for (int i = 0; i < 16 && i < static_cast<int>(sorted.size()); ++i) {
    top16 += sorted[i];
  }
  EXPECT_GT(static_cast<double>(top16) / n, 0.5);
}

TEST(WorkingSetGenerator, Validates) {
  WorkingSetGenerator::Config cfg;
  cfg.page_bytes = 32;  // < 64 minimum
  EXPECT_THROW(WorkingSetGenerator(cfg, 1), Error);
  cfg = {};
  cfg.zipf_s = 0.0;
  EXPECT_THROW(WorkingSetGenerator(cfg, 1), Error);
  cfg = {};
  cfg.run_length = 0;
  EXPECT_THROW(WorkingSetGenerator(cfg, 1), Error);
}

TEST(PointerChase, VisitsEveryNodeOnce) {
  // Sattolo cycle: a walk of N steps from any start visits N distinct
  // nodes and returns to the start.
  const std::uint64_t footprint = 64 * 128;  // 128 nodes of 64 B
  PointerChaseGenerator g(0, footprint, 64, 3);
  std::set<std::uint64_t> seen;
  const auto first = g.next().address;
  seen.insert(first);
  for (int i = 1; i < 128; ++i) {
    const auto a = g.next().address;
    EXPECT_TRUE(seen.insert(a).second) << "revisit at step " << i;
  }
  EXPECT_EQ(g.next().address, first);  // cycle closes
}

TEST(PointerChase, NoSpatialLocality) {
  PointerChaseGenerator g(0, 1 << 20, 64, 11);
  int adjacent = 0;
  std::uint64_t prev = g.next().address;
  for (int i = 0; i < 2000; ++i) {
    const auto a = g.next().address;
    if (a == prev + 64 || a + 64 == prev) ++adjacent;
    prev = a;
  }
  EXPECT_LT(adjacent, 20);  // ~0.2% by chance, not a pattern
}

TEST(PointerChase, ReadsOnly) {
  PointerChaseGenerator g(0, 1 << 16, 64, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(g.next().is_write);
  }
}

TEST(PointerChase, Validates) {
  EXPECT_THROW(PointerChaseGenerator(0, 100, 4, 1), Error);   // node < 8
  EXPECT_THROW(PointerChaseGenerator(0, 64, 64, 1), Error);   // < 2 nodes
}

TEST(MixGenerator, DrawsFromAllSources) {
  std::vector<std::unique_ptr<TraceSource>> parts;
  parts.push_back(std::make_unique<StrideGenerator>(0x0, 8, 1024, 0.0, 1));
  parts.push_back(
      std::make_unique<StrideGenerator>(0x10000000, 8, 1024, 0.0, 2));
  MixGenerator mix(std::move(parts), {0.5, 0.5}, 77);
  int low = 0;
  int high = 0;
  for (int i = 0; i < 4000; ++i) {
    if (mix.next().address < 0x10000000) {
      ++low;
    } else {
      ++high;
    }
  }
  EXPECT_NEAR(low / 4000.0, 0.5, 0.05);
  EXPECT_NEAR(high / 4000.0, 0.5, 0.05);
}

TEST(MixGenerator, WeightsBias) {
  std::vector<std::unique_ptr<TraceSource>> parts;
  parts.push_back(std::make_unique<StrideGenerator>(0x0, 8, 1024, 0.0, 1));
  parts.push_back(
      std::make_unique<StrideGenerator>(0x10000000, 8, 1024, 0.0, 2));
  MixGenerator mix(std::move(parts), {0.9, 0.1}, 77);
  int low = 0;
  for (int i = 0; i < 4000; ++i) {
    if (mix.next().address < 0x10000000) ++low;
  }
  EXPECT_NEAR(low / 4000.0, 0.9, 0.03);
}

TEST(MixGenerator, Validates) {
  std::vector<std::unique_ptr<TraceSource>> empty;
  EXPECT_THROW(MixGenerator(std::move(empty), {}, 1), Error);
  std::vector<std::unique_ptr<TraceSource>> one;
  one.push_back(std::make_unique<StrideGenerator>(0, 8, 1024, 0.0, 1));
  EXPECT_THROW(MixGenerator(std::move(one), {0.5, 0.5}, 1), Error);
  std::vector<std::unique_ptr<TraceSource>> neg;
  neg.push_back(std::make_unique<StrideGenerator>(0, 8, 1024, 0.0, 1));
  EXPECT_THROW(MixGenerator(std::move(neg), {-1.0}, 1), Error);
}

}  // namespace
}  // namespace nanocache::sim
