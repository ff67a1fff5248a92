// Thread-count invariance of the optimizers and reports: every result the
// library computes must be identical at --threads 1 and --threads 8, down
// to the exact bytes of the rendered tables.  This is the regression gate
// for the deterministic-reduction contract (index-order merges, grid-index
// argmin tie-breaking, buffered degradation logs).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/report.h"
#include "opt/schemes.h"
#include "opt/tuple_menu.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace nanocache {
namespace {

/// Run `fn` under a fixed pool default thread count, restoring afterwards.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  par::set_default_threads(threads);
  auto result = fn();
  par::set_default_threads(0);
  return result;
}

std::string render(const TextTable& t) {
  std::ostringstream os;
  os << t;
  return os.str();
}

TEST(ParallelDeterminism, SingleCacheOptimaIdenticalAcrossThreadCounts) {
  core::Explorer explorer;
  const auto& m = explorer.l1_model(16 * 1024);
  const auto eval = opt::structural_evaluator(m);
  const auto grid = explorer.config().grid;
  const auto ladder = explorer.delay_ladder(16 * 1024, 5);
  for (const auto scheme :
       {opt::Scheme::kPerComponent, opt::Scheme::kArrayPeriphery,
        opt::Scheme::kUniform}) {
    for (const double target : ladder) {
      const auto solve = [&] {
        return opt::optimize_single_cache(eval, grid, scheme, target);
      };
      const auto serial = with_threads(1, solve);
      const auto parallel = with_threads(8, solve);
      ASSERT_EQ(serial.has_value(), parallel.has_value());
      if (!serial) continue;
      // Exact equality: same leakage bits AND the same knob assignment —
      // argmin ties must break by grid index, not worker arrival order.
      EXPECT_EQ(serial->leakage_w, parallel->leakage_w);
      EXPECT_EQ(serial->access_time_s, parallel->access_time_s);
      for (auto kind : cachemodel::kAllComponents) {
        EXPECT_EQ(serial->assignment.get(kind).vth_v,
                  parallel->assignment.get(kind).vth_v);
        EXPECT_EQ(serial->assignment.get(kind).tox_a,
                  parallel->assignment.get(kind).tox_a);
      }
    }
  }
}

TEST(ParallelDeterminism, SchemeComparisonReportBytesIdentical) {
  const auto run = [](int threads) {
    return with_threads(threads, [] {
      core::Explorer explorer;
      const auto size = explorer.config().l1_size_bytes;
      const auto ladder = explorer.delay_ladder(size, 7);
      return render(
          core::scheme_long_table(explorer.scheme_comparison(size, ladder)));
    });
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ParallelDeterminism, TupleMenuDesignsIdenticalAcrossThreadCounts) {
  core::Explorer explorer;
  const auto system = explorer.default_system();
  const opt::TupleMenuSolver solver(system, explorer.config().grid);
  const opt::MenuSpec spec{2, 2};
  auto& registry = metrics::Registry::instance();
  auto& designs = registry.counter("opt.designs_considered");
  auto& solved = registry.counter("opt.menus_solved");
  struct Run {
    std::vector<opt::SystemDesignPoint> frontier;
    std::optional<opt::SystemDesignPoint> best;
    std::uint64_t designs = 0;  // opt.designs_considered delta
    std::uint64_t solved = 0;   // opt.menus_solved delta
  };
  const auto run_at = [&](int threads) {
    return with_threads(threads, [&] {
      const auto designs_before = designs.value();
      const auto solved_before = solved.value();
      Run r;
      r.frontier = solver.frontier(spec);
      r.best = solver.best_at(spec, 1.7e-9);
      r.designs = designs.value() - designs_before;
      r.solved = solved.value() - solved_before;
      return r;
    });
  };
  const auto serial = run_at(1);
  ASSERT_FALSE(serial.frontier.empty());
  ASSERT_TRUE(serial.best.has_value());
  EXPECT_GT(serial.solved, 0u);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    const auto parallel = run_at(threads);
    ASSERT_EQ(serial.frontier.size(), parallel.frontier.size());
    for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
      EXPECT_EQ(serial.frontier[i].amat_s, parallel.frontier[i].amat_s);
      EXPECT_EQ(serial.frontier[i].energy_j, parallel.frontier[i].energy_j);
      EXPECT_EQ(serial.frontier[i].leakage_w, parallel.frontier[i].leakage_w);
    }
    ASSERT_TRUE(parallel.best.has_value());
    EXPECT_EQ(serial.best->energy_j, parallel.best->energy_j);
    EXPECT_EQ(serial.best->amat_s, parallel.best->amat_s);
    // Which menus a solve runs is fixed by the bounds and the fixed wave
    // width alone, so the work counters repeat exactly.
    EXPECT_EQ(serial.designs, parallel.designs);
    EXPECT_EQ(serial.solved, parallel.solved);
  }
}

TEST(ParallelDeterminism, SizeSweepAndFig1ReportsBytesIdentical) {
  const auto run = [](int threads) {
    return with_threads(threads, [] {
      core::Explorer explorer;
      std::ostringstream os;
      os << core::fig1_long_table(
                explorer.fig1_fixed_knob(explorer.config().l1_size_bytes))
         << core::size_sweep_table(
                explorer.l2_size_sweep(opt::Scheme::kUniform,
                                       explorer.l2_squeeze_target_s()),
                "l2_uniform")
         << core::size_sweep_table(
                explorer.l1_size_sweep(explorer.l2_squeeze_target_s(1.25)),
                "l1");
      return os.str();
    });
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ParallelDeterminism, FittedPathDegradationLogIdentical) {
  // The fitted path records degradation events from inside worker threads;
  // buffered per-task logs merged in index order must make the log (and
  // its rendering) thread-count invariant.
  const auto run = [](int threads) {
    return with_threads(threads, [] {
      core::ExperimentConfig config;
      config.use_fitted_models = true;
      core::Explorer explorer(config);
      const auto size = explorer.config().l1_size_bytes;
      const auto ladder = explorer.delay_ladder(size, 5);
      std::ostringstream os;
      os << core::scheme_long_table(explorer.scheme_comparison(size, ladder))
         << render(core::degradation_table(explorer));
      return os.str();
    });
  };
  EXPECT_EQ(run(1), run(8));
}

}  // namespace
}  // namespace nanocache
