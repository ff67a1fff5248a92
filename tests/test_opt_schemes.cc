// Tests for the Section 4 scheme optimizers: exactness against brute
// force on reduced grids, constraint satisfaction, the paper's scheme
// ordering, and the array-conservative/periphery-aggressive structure of
// the optima.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "opt/schemes.h"
#include "util/error.h"

namespace nanocache::opt {
namespace {

using cachemodel::CacheModel;
using cachemodel::ComponentAssignment;
using cachemodel::ComponentKind;
using cachemodel::kAllComponents;
using cachemodel::kNumComponents;

const CacheModel& cache16k() {
  static auto model = [] {
    tech::DeviceModel dev(tech::bptm65());
    return std::make_unique<CacheModel>(
        cachemodel::l1_organization(16 * 1024, dev),
        tech::DeviceModel(dev.params()));
  }();
  return *model;
}

KnobGrid small_grid() {
  KnobGrid g;
  g.vth_values = {0.20, 0.35, 0.50};
  g.tox_values = {10.0, 14.0};
  return g;
}

/// Brute-force scheme-I optimum by full enumeration (6^4 = 1296 states).
std::optional<SchemeResult> brute_force_scheme1(const ComponentEvaluator& eval,
                                                const KnobGrid& grid,
                                                double constraint) {
  const auto pairs = grid.pairs();
  std::array<std::vector<ComponentOption>, kNumComponents> options;
  for (ComponentKind kind : kAllComponents) {
    options[static_cast<std::size_t>(kind)] =
        component_options(eval, kind, pairs);
  }
  std::optional<SchemeResult> best;
  const std::size_t n = pairs.size();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t d = 0; d < n; ++d) {
          const double delay = options[0][a].delay_s + options[1][b].delay_s +
                               options[2][c].delay_s + options[3][d].delay_s;
          if (delay > constraint) continue;
          const double leak =
              options[0][a].leakage_w + options[1][b].leakage_w +
              options[2][c].leakage_w + options[3][d].leakage_w;
          if (!best || leak < best->leakage_w) {
            SchemeResult r;
            r.leakage_w = leak;
            r.access_time_s = delay;
            r.assignment.set(ComponentKind::kCellArray, options[0][a].knobs);
            r.assignment.set(ComponentKind::kDecoder, options[1][b].knobs);
            r.assignment.set(ComponentKind::kAddressDrivers,
                             options[2][c].knobs);
            r.assignment.set(ComponentKind::kDataDrivers, options[3][d].knobs);
            best = r;
          }
        }
      }
    }
  }
  return best;
}

/// Brute-force Scheme II/III optimum leakage: every (array pair, periphery
/// pair) combination, the two pairs forced equal for Scheme III.
std::optional<double> brute_force_blocks(const ComponentEvaluator& eval,
                                         const KnobGrid& grid, Scheme scheme,
                                         double constraint) {
  std::optional<double> best;
  for (const auto& a : grid.pairs()) {
    for (const auto& p : grid.pairs()) {
      if (scheme == Scheme::kUniform && !(a == p)) continue;
      double delay = 0.0;
      double leak = 0.0;
      for (ComponentKind kind : kAllComponents) {
        const auto m = eval(kind, kind == ComponentKind::kCellArray ? a : p);
        delay += m.delay_s;
        leak += m.leakage_w;
      }
      if (delay <= constraint && (!best || leak < *best)) best = leak;
    }
  }
  return best;
}

TEST(SchemeNames, AllDistinct) {
  EXPECT_NE(scheme_name(Scheme::kPerComponent),
            scheme_name(Scheme::kArrayPeriphery));
  EXPECT_NE(scheme_name(Scheme::kArrayPeriphery),
            scheme_name(Scheme::kUniform));
}

TEST(SchemeOptimizer, Scheme1MatchesBruteForce) {
  const auto eval = structural_evaluator(cache16k());
  const auto grid = small_grid();
  const double lo = min_access_time(eval, grid, Scheme::kPerComponent);
  for (double factor : {1.05, 1.2, 1.5, 2.0}) {
    const double constraint = lo * factor;
    const auto fast = optimize_single_cache(eval, grid,
                                            Scheme::kPerComponent, constraint);
    const auto truth = brute_force_scheme1(eval, grid, constraint);
    ASSERT_EQ(fast.has_value(), truth.has_value()) << factor;
    if (fast) {
      EXPECT_NEAR(fast->leakage_w, truth->leakage_w,
                  truth->leakage_w * 1e-9)
          << factor;
    }
  }
}

TEST(SchemeOptimizer, SchemesIIAndIIIMatchBruteForce) {
  const auto eval = structural_evaluator(cache16k());
  const auto grid = small_grid();
  for (Scheme s : {Scheme::kArrayPeriphery, Scheme::kUniform}) {
    const double lo = min_access_time(eval, grid, s);
    for (double factor : {0.9, 1.05, 1.3, 2.0}) {
      for (SearchMode mode : {SearchMode::kPruned, SearchMode::kExhaustive}) {
        const auto fast =
            optimize_single_cache(eval, grid, s, lo * factor, mode);
        const auto truth = brute_force_blocks(eval, grid, s, lo * factor);
        ASSERT_EQ(fast.has_value(), truth.has_value())
            << scheme_name(s) << " " << factor;
        if (fast) {
          EXPECT_NEAR(fast->leakage_w, *truth, *truth * 1e-9)
              << scheme_name(s) << " " << factor;
        }
      }
    }
  }
}

TEST(SchemeOptimizer, RespectsDelayConstraint) {
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  for (Scheme s : {Scheme::kPerComponent, Scheme::kArrayPeriphery,
                   Scheme::kUniform}) {
    const double lo = min_access_time(eval, grid, s);
    const auto r = optimize_single_cache(eval, grid, s, lo * 1.3);
    ASSERT_TRUE(r.has_value());
    EXPECT_LE(r->access_time_s, lo * 1.3 * (1 + 1e-12));
  }
}

TEST(SchemeOptimizer, InfeasibleReturnsNullopt) {
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  const double lo = min_access_time(eval, grid, Scheme::kUniform);
  EXPECT_FALSE(optimize_single_cache(eval, grid, Scheme::kUniform, lo * 0.5)
                   .has_value());
  EXPECT_THROW(
      optimize_single_cache(eval, grid, Scheme::kUniform, -1.0), Error);
}

TEST(SchemeOptimizer, OrderingMatchesPaper) {
  // Scheme I <= Scheme II <= Scheme III at every feasible target (a strict
  // nesting of the feasible assignment sets).
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  const double lo = min_access_time(eval, grid, Scheme::kUniform);
  for (double factor : {1.05, 1.15, 1.3, 1.6, 2.0}) {
    const double t = lo * factor;
    const auto s1 = optimize_single_cache(eval, grid, Scheme::kPerComponent, t);
    const auto s2 =
        optimize_single_cache(eval, grid, Scheme::kArrayPeriphery, t);
    const auto s3 = optimize_single_cache(eval, grid, Scheme::kUniform, t);
    ASSERT_TRUE(s1 && s2 && s3) << factor;
    EXPECT_LE(s1->leakage_w, s2->leakage_w * (1 + 1e-12)) << factor;
    EXPECT_LE(s2->leakage_w, s3->leakage_w * (1 + 1e-12)) << factor;
  }
}

TEST(SchemeOptimizer, SchemeIIWithinFewPercentOfSchemeI) {
  // The paper's economic argument: II is "only slightly behind" I.
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  const double lo = min_access_time(eval, grid, Scheme::kUniform);
  const auto s1 =
      optimize_single_cache(eval, grid, Scheme::kPerComponent, lo * 1.4);
  const auto s2 =
      optimize_single_cache(eval, grid, Scheme::kArrayPeriphery, lo * 1.4);
  ASSERT_TRUE(s1 && s2);
  EXPECT_LT(s2->leakage_w / s1->leakage_w, 1.25);
}

TEST(SchemeOptimizer, ArrayGetsConservativeKnobs) {
  // "High values of Vth and thick Tox are always assigned to the memory
  // cell arrays" in schemes I and II (checked at mid targets where the
  // choice is non-trivial).
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  const double lo = min_access_time(eval, grid, Scheme::kUniform);
  for (Scheme s : {Scheme::kPerComponent, Scheme::kArrayPeriphery}) {
    const auto r = optimize_single_cache(eval, grid, s, lo * 1.4);
    ASSERT_TRUE(r.has_value());
    const auto& arr = r->assignment.get(ComponentKind::kCellArray);
    const auto& per = r->assignment.get(ComponentKind::kDecoder);
    EXPECT_GE(arr.vth_v, per.vth_v);
    EXPECT_GE(arr.tox_a, per.tox_a);
  }
}

TEST(SchemeOptimizer, UniformAssignmentIsActuallyUniform) {
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  const double lo = min_access_time(eval, grid, Scheme::kUniform);
  const auto r = optimize_single_cache(eval, grid, Scheme::kUniform, lo * 1.5);
  ASSERT_TRUE(r.has_value());
  const auto& first = r->assignment.get(ComponentKind::kCellArray);
  for (ComponentKind kind : kAllComponents) {
    EXPECT_EQ(r->assignment.get(kind), first);
  }
}

TEST(SchemeOptimizer, SchemeIIPairsShared) {
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  const double lo = min_access_time(eval, grid, Scheme::kArrayPeriphery);
  const auto r =
      optimize_single_cache(eval, grid, Scheme::kArrayPeriphery, lo * 1.4);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->assignment.get(ComponentKind::kDecoder),
            r->assignment.get(ComponentKind::kAddressDrivers));
  EXPECT_EQ(r->assignment.get(ComponentKind::kDecoder),
            r->assignment.get(ComponentKind::kDataDrivers));
}

TEST(SchemeOptimizer, LeakageMonotoneInConstraint) {
  // Looser constraints can only help.
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  const double lo = min_access_time(eval, grid, Scheme::kPerComponent);
  double prev = std::numeric_limits<double>::infinity();
  for (double factor = 1.05; factor < 2.6; factor += 0.25) {
    const auto r = optimize_single_cache(eval, grid, Scheme::kPerComponent,
                                         lo * factor);
    ASSERT_TRUE(r.has_value()) << factor;
    EXPECT_LE(r->leakage_w, prev * (1 + 1e-12)) << factor;
    prev = r->leakage_w;
  }
}

TEST(SchemeOptimizer, MinAccessTimeOrdering) {
  // More freedom can only speed things up (or tie).
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  const double t1 = min_access_time(eval, grid, Scheme::kPerComponent);
  const double t2 = min_access_time(eval, grid, Scheme::kArrayPeriphery);
  const double t3 = min_access_time(eval, grid, Scheme::kUniform);
  EXPECT_LE(t1, t2 * (1 + 1e-12));
  EXPECT_LE(t2, t3 * (1 + 1e-12));
}

TEST(Options, PeripheryIsSumOfThreeComponents) {
  const auto eval = structural_evaluator(cache16k());
  const auto pairs = small_grid().pairs();
  const auto periph =
      space_block_options(eval, OptSpace::base(), /*array_block=*/false, pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    double delay = 0.0;
    double leak = 0.0;
    for (ComponentKind kind :
         {ComponentKind::kDecoder, ComponentKind::kAddressDrivers,
          ComponentKind::kDataDrivers}) {
      const auto m = eval(kind, pairs[i]);
      delay += m.delay_s;
      leak += m.leakage_w;
    }
    EXPECT_NEAR(periph[i].delay_s, delay, delay * 1e-12);
    EXPECT_NEAR(periph[i].leakage_w, leak, leak * 1e-12);
  }
}

TEST(Options, UniformIsSumOfAllFour) {
  const auto eval = structural_evaluator(cache16k());
  const auto pairs = small_grid().pairs();
  const auto uni = space_uniform_options(eval, OptSpace::base(), pairs);
  const auto m = cache16k().evaluate_uniform(pairs[0]);
  EXPECT_NEAR(uni[0].delay_s, m.access_time_s, m.access_time_s * 1e-12);
  EXPECT_NEAR(uni[0].leakage_w, m.leakage_w, m.leakage_w * 1e-12);
}

TEST(Options, FittedEvaluatorTracksStructural) {
  const auto& model = cache16k();
  const auto fits = cachemodel::FittedCacheModel::fit(model);
  const auto fitted = fitted_evaluator(fits, model);
  const auto structural = structural_evaluator(model);
  const tech::DeviceKnobs k{0.35, 12.0};
  for (ComponentKind kind : kAllComponents) {
    const auto f = fitted(kind, k);
    const auto s = structural(kind, k);
    EXPECT_NEAR(f.delay_s / s.delay_s, 1.0, 0.1)
        << component_name(kind);
    // Dynamic energy passes through from the structural model.
    EXPECT_DOUBLE_EQ(f.dynamic_energy_j, s.dynamic_energy_j);
  }
}

TEST(Options, FittedOptimizerAgreesWithStructuralOnOrdering) {
  // The paper optimized its fitted forms; our reproduction must reach the
  // same scheme ordering through that path too.
  const auto& model = cache16k();
  const auto fits = cachemodel::FittedCacheModel::fit(model);
  const auto eval = fitted_evaluator(fits, model);
  const auto grid = KnobGrid::paper_default();
  const double lo = min_access_time(eval, grid, Scheme::kUniform);
  const auto s1 =
      optimize_single_cache(eval, grid, Scheme::kPerComponent, lo * 1.3);
  const auto s3 = optimize_single_cache(eval, grid, Scheme::kUniform, lo * 1.3);
  ASSERT_TRUE(s1 && s3);
  EXPECT_LE(s1->leakage_w, s3->leakage_w * (1 + 1e-12));
}

}  // namespace
}  // namespace nanocache::opt
