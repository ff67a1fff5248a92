// Tests for the optimizer building blocks: discrete knob grids, subset
// enumeration for process menus, the Pareto-filter primitives the DP
// optimizers rest on, and the reference 3-objective filter the tuple DP's
// merged step is checked against (tests/support/pareto_reference.h).
#include <gtest/gtest.h>

#include <cmath>

#include "opt/grid.h"
#include "opt/pareto.h"
#include "support/pareto_reference.h"
#include "util/error.h"
#include "util/rng.h"

namespace nanocache::opt {
namespace {

TEST(KnobGrid, PaperDefaultMatchesSection2) {
  const auto g = KnobGrid::paper_default();
  ASSERT_EQ(g.vth_values.size(), 7u);
  ASSERT_EQ(g.tox_values.size(), 5u);
  EXPECT_DOUBLE_EQ(g.vth_values.front(), 0.20);
  EXPECT_DOUBLE_EQ(g.vth_values.back(), 0.50);
  EXPECT_NEAR(g.vth_values[1] - g.vth_values[0], 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(g.tox_values.front(), 10.0);
  EXPECT_DOUBLE_EQ(g.tox_values.back(), 14.0);
}

TEST(KnobGrid, PairsAreCartesianProduct) {
  const auto g = KnobGrid::paper_default();
  const auto pairs = g.pairs();
  EXPECT_EQ(pairs.size(), 35u);
  // vth-major: first 5 share vth=0.2.
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(pairs[i].vth_v, 0.20);
    EXPECT_DOUBLE_EQ(pairs[i].tox_a, 10.0 + i);
  }
}

TEST(KnobGrid, FineGridDenser) {
  const auto fine = KnobGrid::fine();
  EXPECT_GT(fine.pairs().size(), KnobGrid::paper_default().pairs().size());
}

TEST(KnobGrid, ValidatesOrdering) {
  KnobGrid g;
  g.vth_values = {0.3, 0.2};
  g.tox_values = {10, 11};
  EXPECT_THROW(g.validate(), Error);
  g.vth_values = {};
  EXPECT_THROW(g.validate(), Error);
}

TEST(ChooseSubsets, CountsMatchBinomial) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_EQ(choose_subsets(v, 1).size(), 5u);
  EXPECT_EQ(choose_subsets(v, 2).size(), 10u);
  EXPECT_EQ(choose_subsets(v, 3).size(), 10u);
  EXPECT_EQ(choose_subsets(v, 5).size(), 1u);
}

TEST(ChooseSubsets, SubsetsSortedAndDistinct) {
  const std::vector<double> v = {1, 2, 3, 4};
  const auto subsets = choose_subsets(v, 2);
  for (const auto& s : subsets) {
    ASSERT_EQ(s.size(), 2u);
    EXPECT_LT(s[0], s[1]);
  }
  // All distinct.
  for (std::size_t i = 0; i < subsets.size(); ++i) {
    for (std::size_t j = i + 1; j < subsets.size(); ++j) {
      EXPECT_TRUE(subsets[i] != subsets[j]);
    }
  }
}

TEST(ChooseSubsets, Validates) {
  EXPECT_THROW(choose_subsets({1.0}, 2), Error);
  EXPECT_THROW(choose_subsets({1.0, 2.0}, 0), Error);
}

TEST(MenuPairs, CrossProduct) {
  const auto pairs = menu_pairs({0.2, 0.4}, {10, 12, 14});
  EXPECT_EQ(pairs.size(), 6u);
  EXPECT_THROW(menu_pairs({}, {10.0}), Error);
}

// --- Pareto primitives -------------------------------------------------------

struct P2 {
  double x, y;
};

TEST(ParetoMin2, KeepsOnlyNonDominated) {
  std::vector<P2> pts = {{1, 5}, {2, 3}, {3, 4}, {4, 1}, {5, 2}};
  const auto front = pareto_min2(
      pts, [](const P2& p) { return p.x; }, [](const P2& p) { return p.y; });
  // (3,4) dominated by (2,3); (5,2) dominated by (4,1).
  ASSERT_EQ(front.size(), 3u);
  EXPECT_DOUBLE_EQ(front[0].x, 1);
  EXPECT_DOUBLE_EQ(front[1].x, 2);
  EXPECT_DOUBLE_EQ(front[2].x, 4);
}

TEST(ParetoMin2, SinglePointSurvives) {
  std::vector<P2> pts = {{1, 1}};
  EXPECT_EQ(pareto_min2(
                pts, [](const P2& p) { return p.x; },
                [](const P2& p) { return p.y; })
                .size(),
            1u);
}

TEST(ParetoMin2, DuplicatesCollapse) {
  std::vector<P2> pts = {{1, 1}, {1, 1}, {1, 1}};
  EXPECT_EQ(pareto_min2(
                pts, [](const P2& p) { return p.x; },
                [](const P2& p) { return p.y; })
                .size(),
            1u);
}

struct P3 {
  double x, y, z;
};

bool dominates(const P3& a, const P3& b) {
  return a.x <= b.x && a.y <= b.y && a.z <= b.z &&
         (a.x < b.x || a.y < b.y || a.z < b.z);
}

TEST(ParetoMin3, AgreesWithBruteForceOnRandomClouds) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<P3> pts;
    for (int i = 0; i < 200; ++i) {
      pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    }
    const auto front = reference::pareto_min3(
        pts, [](const P3& p) { return p.x; }, [](const P3& p) { return p.y; },
        [](const P3& p) { return p.z; });
    // Brute-force count of non-dominated points.
    int expected = 0;
    for (const auto& a : pts) {
      bool dominated = false;
      for (const auto& b : pts) {
        if (dominates(b, a)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) ++expected;
    }
    EXPECT_EQ(static_cast<int>(front.size()), expected) << "trial " << trial;
    // And every survivor must itself be non-dominated in the original set.
    for (const auto& a : front) {
      for (const auto& b : pts) {
        EXPECT_FALSE(dominates(b, a));
      }
    }
  }
}

TEST(ParetoMin3, AntichainSurvivesWhole) {
  // Points on x+y+z = const with distinct coordinates: none dominates.
  std::vector<P3> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back({static_cast<double>(i), static_cast<double>(9 - i),
                   std::sin(i) * 0.0 + (i % 2 ? 1.0 : 2.0)});
  }
  // Make z an antichain dimension too: z = 10 - x - y is constant here,
  // so vary z downward with x to preserve the antichain.
  pts.clear();
  for (int i = 0; i < 10; ++i) {
    pts.push_back({static_cast<double>(i), static_cast<double>(9 - i),
                   static_cast<double>(i % 5)});
  }
  const auto front = reference::pareto_min3(
      pts, [](const P3& p) { return p.x; }, [](const P3& p) { return p.y; },
      [](const P3& p) { return p.z; });
  // Verify against brute force rather than assuming all survive.
  int expected = 0;
  for (const auto& a : pts) {
    bool dominated = false;
    for (const auto& b : pts) {
      if (dominates(b, a)) dominated = true;
    }
    if (!dominated) ++expected;
  }
  EXPECT_EQ(static_cast<int>(front.size()), expected);
}

TEST(ThinTo, KeepsEndsAndBounds) {
  std::vector<int> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  thin_to(v, 10);
  ASSERT_LE(v.size(), 10u);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 99);
}

TEST(ThinTo, NoopWhenSmall) {
  std::vector<int> v = {1, 2, 3};
  thin_to(v, 10);
  EXPECT_EQ(v.size(), 3u);
  thin_to(v, 1);  // cap < 2 is a no-op by contract
  EXPECT_EQ(v.size(), 3u);
}

}  // namespace
}  // namespace nanocache::opt
