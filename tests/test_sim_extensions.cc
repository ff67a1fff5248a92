// Tests for the program-phase trace generator.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/generators.h"
#include "util/error.h"

namespace nanocache::sim {
namespace {

// --- phase generator ----------------------------------------------------------

std::vector<std::unique_ptr<TraceSource>> two_regions() {
  std::vector<std::unique_ptr<TraceSource>> v;
  v.push_back(std::make_unique<StrideGenerator>(0x0, 8, 4096, 0.0, 1));
  v.push_back(
      std::make_unique<StrideGenerator>(0x10000000, 8, 4096, 0.0, 2));
  return v;
}

TEST(PhaseGenerator, StaysInPhaseForRuns) {
  PhaseGenerator g(two_regions(), /*mean_phase_length=*/1000, 42);
  // Over a window much shorter than the mean phase, almost all accesses
  // come from one region.
  int switches = 0;
  bool last_high = g.next().address >= 0x10000000;
  for (int i = 0; i < 200; ++i) {
    const bool high = g.next().address >= 0x10000000;
    if (high != last_high) ++switches;
    last_high = high;
  }
  EXPECT_LE(switches, 2);
}

TEST(PhaseGenerator, EventuallyVisitsAllPhases) {
  PhaseGenerator g(two_regions(), /*mean_phase_length=*/50, 42);
  bool low = false;
  bool high = false;
  for (int i = 0; i < 5000; ++i) {
    if (g.next().address >= 0x10000000) {
      high = true;
    } else {
      low = true;
    }
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
  EXPECT_GT(g.phase_transitions(), 10u);
}

TEST(PhaseGenerator, MeanPhaseLengthApproximatelyRespected) {
  PhaseGenerator g(two_regions(), /*mean_phase_length=*/100, 7);
  const int n = 100000;
  for (int i = 0; i < n; ++i) g.next();
  const double mean_run =
      static_cast<double>(n) / static_cast<double>(g.phase_transitions());
  EXPECT_NEAR(mean_run, 100.0, 25.0);
}

TEST(PhaseGenerator, SinglePhaseNeverSwitches) {
  std::vector<std::unique_ptr<TraceSource>> one;
  one.push_back(std::make_unique<StrideGenerator>(0, 8, 4096, 0.0, 1));
  PhaseGenerator g(std::move(one), 10, 3);
  for (int i = 0; i < 1000; ++i) g.next();
  EXPECT_EQ(g.phase_transitions(), 0u);
  EXPECT_EQ(g.current_phase(), 0u);
}

TEST(PhaseGenerator, Validates) {
  EXPECT_THROW(PhaseGenerator({}, 10, 1), Error);
  EXPECT_THROW(PhaseGenerator(two_regions(), 0, 1), Error);
}

TEST(PhaseGenerator, Deterministic) {
  PhaseGenerator a(two_regions(), 30, 9);
  PhaseGenerator b(two_regions(), 30, 9);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.next().address, b.next().address);
  }
}

}  // namespace
}  // namespace nanocache::sim
