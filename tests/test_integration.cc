// End-to-end integration tests: each paper claim, asserted through the
// same Explorer paths the bench harness prints.  These are the repository's
// reproduction contract — if one of these fails, a bench's REPRODUCED line
// would flip.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/explorer.h"
#include "opt/tuple_menu.h"

namespace nanocache::core {
namespace {

Explorer& explorer() {
  static Explorer e;
  return e;
}

// --- FIG1 claims (Section 4) ------------------------------------------------

TEST(Fig1, VthIsTheWiderDelayKnob) {
  const auto series = explorer().fig1_fixed_knob(16 * 1024, 9);
  const auto& tox_fixed = series[0];  // Vth swept
  const auto& vth_fixed = series[2];  // Tox swept
  const double vth_span = tox_fixed.points.back().access_time_s /
                          tox_fixed.points.front().access_time_s;
  const double tox_span = vth_fixed.points.back().access_time_s /
                          vth_fixed.points.front().access_time_s;
  EXPECT_GT(vth_span, tox_span);
}

TEST(Fig1, ToxIsTheBiggerLeakageLever) {
  const auto series = explorer().fig1_fixed_knob(16 * 1024, 9);
  // At the conservative end of the other knob, compare the leverage.
  const double tox_gap =
      series[0].points.back().leakage_w / series[1].points.back().leakage_w;
  const double vth_gap =
      series[0].points.front().leakage_w / series[0].points.back().leakage_w;
  EXPECT_GT(tox_gap, vth_gap);
}

TEST(Fig1, LeakageFallsMonotonicallyAlongEachCurve) {
  const auto series = explorer().fig1_fixed_knob(16 * 1024, 9);
  for (const auto& s : series) {
    for (std::size_t i = 1; i < s.points.size(); ++i) {
      EXPECT_LT(s.points[i].leakage_w, s.points[i - 1].leakage_w)
          << s.label << " @" << i;
      EXPECT_GT(s.points[i].access_time_s, s.points[i - 1].access_time_s)
          << s.label << " @" << i;
    }
  }
}

TEST(Fig1, AccessTimeWindowMatchesPaperAxis) {
  // Paper Figure 1 x-axis: ~800-2200 pS for the 16 KB design.
  const auto series = explorer().fig1_fixed_knob(16 * 1024, 9);
  double lo = 1e9;
  double hi = 0.0;
  for (const auto& s : series) {
    for (const auto& p : s.points) {
      lo = std::min(lo, p.access_time_s);
      hi = std::max(hi, p.access_time_s);
    }
  }
  EXPECT_GT(lo, 0.6e-9);
  EXPECT_LT(lo, 1.1e-9);
  EXPECT_GT(hi, 1.8e-9);
  EXPECT_LT(hi, 2.6e-9);
}

TEST(Fig1, GateLeakageFloorVisibleOnThinToxCurve) {
  // The Tox=10A curve must flatten: raising Vth stops helping once gate
  // tunnelling dominates — the paper's motivation for total leakage.
  const auto series = explorer().fig1_fixed_knob(16 * 1024, 9);
  const auto& thin = series[0].points;
  const double first_drop = thin[0].leakage_w - thin[1].leakage_w;
  const double last_drop =
      thin[thin.size() - 2].leakage_w - thin.back().leakage_w;
  EXPECT_GT(first_drop, last_drop * 5.0);
}

// --- Section 4 scheme claims -------------------------------------------------

TEST(SchemeStudy, FullLadderOrdering) {
  const auto ladder = explorer().delay_ladder(16 * 1024, 7);
  const auto rows = explorer().scheme_comparison(16 * 1024, ladder);
  for (const auto& r : rows) {
    if (!(r.scheme1 && r.scheme2 && r.scheme3)) continue;
    EXPECT_LE(r.scheme1->leakage_w, r.scheme2->leakage_w * (1 + 1e-12));
    EXPECT_LE(r.scheme2->leakage_w, r.scheme3->leakage_w * (1 + 1e-12));
  }
}

TEST(SchemeStudy, SchemeIICloseToSchemeIOnAverage) {
  const auto ladder = explorer().delay_ladder(16 * 1024, 7);
  const auto rows = explorer().scheme_comparison(16 * 1024, ladder);
  double ratio_sum = 0.0;
  int n = 0;
  for (const auto& r : rows) {
    if (!(r.scheme1 && r.scheme2)) continue;
    ratio_sum += r.scheme2->leakage_w / r.scheme1->leakage_w;
    ++n;
  }
  ASSERT_GT(n, 3);
  EXPECT_LT(ratio_sum / n, 1.15);  // "only slightly behind"
}

// --- Section 5 L2 claims -----------------------------------------------------

TEST(L2Study, BiggerL2WinsSomewhereAndLargestDoesNot) {
  bool bigger_wins = false;
  bool largest_not_best = false;
  for (double headroom : {1.05, 1.15, 1.30}) {
    const auto rows = explorer().l2_size_sweep(
        opt::Scheme::kUniform, explorer().l2_squeeze_target_s(headroom));
    const SizeSweepRow* best = nullptr;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].feasible) continue;
      if (i > 0 && rows[i - 1].feasible &&
          rows[i].level_leakage_w < rows[i - 1].level_leakage_w) {
        bigger_wins = true;
      }
      if (!best || rows[i].level_leakage_w < best->level_leakage_w) {
        best = &rows[i];
      }
    }
    if (best && best->size_bytes != rows.back().size_bytes) {
      largest_not_best = true;
    }
  }
  EXPECT_TRUE(bigger_wins);
  EXPECT_TRUE(largest_not_best);
}

TEST(L2Study, SplitNeverWorseThanOnePair) {
  const double target = explorer().l2_squeeze_target_s(1.15);
  const auto one = explorer().l2_size_sweep(opt::Scheme::kUniform, target);
  const auto split =
      explorer().l2_size_sweep(opt::Scheme::kArrayPeriphery, target);
  for (std::size_t i = 0; i < one.size(); ++i) {
    if (!one[i].feasible) continue;
    ASSERT_TRUE(split[i].feasible) << i;
    EXPECT_LE(split[i].level_leakage_w,
              one[i].level_leakage_w * (1 + 1e-12))
        << i;
  }
}

TEST(L2Study, SplitMovesOptimumToSmallerL2) {
  // The abstract's claim.  Checked across the squeeze window: at some
  // target the split optimum is a strictly smaller L2 with less leakage.
  bool moved = false;
  for (double headroom : {1.05, 1.15, 1.30}) {
    const double target = explorer().l2_squeeze_target_s(headroom);
    const auto one = explorer().l2_size_sweep(opt::Scheme::kUniform, target);
    const auto split =
        explorer().l2_size_sweep(opt::Scheme::kArrayPeriphery, target);
    const SizeSweepRow* b1 = nullptr;
    const SizeSweepRow* b2 = nullptr;
    for (const auto& r : one) {
      if (r.feasible && (!b1 || r.level_leakage_w < b1->level_leakage_w)) {
        b1 = &r;
      }
    }
    for (const auto& r : split) {
      if (r.feasible && (!b2 || r.level_leakage_w < b2->level_leakage_w)) {
        b2 = &r;
      }
    }
    if (b1 && b2 && b2->size_bytes < b1->size_bytes &&
        b2->level_leakage_w < b1->level_leakage_w) {
      moved = true;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(L2Study, SplitAlwaysSetsArrayConservative) {
  const double target = explorer().l2_squeeze_target_s(1.15);
  const auto split =
      explorer().l2_size_sweep(opt::Scheme::kArrayPeriphery, target);
  for (const auto& r : split) {
    if (!r.feasible) continue;
    const auto& arr =
        r.result.assignment.get(cachemodel::ComponentKind::kCellArray);
    const auto& per =
        r.result.assignment.get(cachemodel::ComponentKind::kDecoder);
    EXPECT_GE(arr.vth_v, per.vth_v) << r.size_bytes;
    EXPECT_GE(arr.tox_a, per.tox_a) << r.size_bytes;
  }
}

// --- Section 5 L1 claim ------------------------------------------------------

TEST(L1Study, SmallestL1MinimizesTotalLeakage) {
  const auto rows =
      explorer().l1_size_sweep(explorer().l2_squeeze_target_s(1.25));
  const SizeSweepRow* best = nullptr;
  for (const auto& r : rows) {
    if (!r.feasible) continue;
    if (!best || r.total_leakage_w < best->total_leakage_w) best = &r;
  }
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->size_bytes, rows.front().size_bytes);
}

TEST(L1Study, TotalLeakageMonotoneInL1Size) {
  const auto rows =
      explorer().l1_size_sweep(explorer().l2_squeeze_target_s(1.25));
  double prev = 0.0;
  for (const auto& r : rows) {
    if (!r.feasible) continue;
    EXPECT_GE(r.total_leakage_w, prev * 0.999) << r.size_bytes;
    prev = r.total_leakage_w;
  }
}

// --- Figure 2 claims ---------------------------------------------------------

class Fig2Claims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto specs = Explorer::default_fig2_specs();
    std::vector<double> targets;
    for (double ps = 1500; ps <= 2100; ps += 300) {
      targets.push_back(ps * 1e-12);
    }
    // One menu enumeration per spec answers every target of its row.
    const auto system = explorer().default_system();
    const opt::TupleMenuSolver solver(system, explorer().config().grid);
    table_ = new std::vector<std::vector<std::optional<opt::SystemDesignPoint>>>;
    for (const auto& spec : specs) {
      table_->push_back(solver.solve(spec, targets).best);
    }
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static double energy(std::size_t spec, std::size_t target) {
    const auto& cell = (*table_)[spec][target];
    return cell ? cell->energy_j : 1e9;
  }
  static std::vector<std::vector<std::optional<opt::SystemDesignPoint>>>*
      table_;
};

std::vector<std::vector<std::optional<opt::SystemDesignPoint>>>*
    Fig2Claims::table_ = nullptr;

TEST_F(Fig2Claims, TwoToxThreeVthIsEssentiallyBest) {
  // spec order: {2,2}, {2,3}, {3,2}, {2,1}, {1,2}; loosest target index 2.
  const double e23 = energy(1, 2);
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_LE(e23, energy(s, 2) * 1.01) << s;
  }
}

TEST_F(Fig2Claims, DualDualIsSufficient) {
  // "A process with dual Tox and dual Vth is sufficient": within a few
  // percent of the best menu at every evaluated target.
  for (std::size_t t = 0; t < 3; ++t) {
    double best = 1e9;
    for (std::size_t s = 0; s < 5; ++s) best = std::min(best, energy(s, t));
    EXPECT_LE(energy(0, t), best * 1.06) << t;
  }
}

TEST_F(Fig2Claims, SingleToxDualVthBeatsDualToxSingleVth) {
  // "Vth is generally a more effective design knob than Tox" — holds over
  // the paper's plotted range (looser targets); the tightest corner is a
  // documented deviation.
  EXPECT_LT(energy(4, 2), energy(3, 2));
  EXPECT_LT(energy(4, 1), energy(3, 1));
}

TEST_F(Fig2Claims, RestrictedMenusCostMoreThanRicherOnes) {
  for (std::size_t t = 0; t < 3; ++t) {
    // {2,1} and {1,2} are both subsets of {2,2}'s menu space.
    EXPECT_LE(energy(0, t), energy(3, t) * 1.001) << t;
    EXPECT_LE(energy(0, t), energy(4, t) * 1.001) << t;
  }
}

TEST_F(Fig2Claims, EnergyWindowMatchesPaperAxis) {
  // Paper Figure 2 y-axis: 50-400 pJ.  Require the same order of
  // magnitude at the evaluated targets for the feasible menus.
  for (std::size_t t = 0; t < 3; ++t) {
    const double e = energy(0, t);
    EXPECT_GT(e, 30e-12) << t;
    EXPECT_LT(e, 700e-12) << t;
  }
}

}  // namespace
}  // namespace nanocache::core
