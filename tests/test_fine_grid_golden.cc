// Byte-identity golden for the fine knob grid (KnobGrid::fine(): 13 Vth x 9
// Tox = 117 pairs).  The paper's 7x5 grid keeps every option table and
// block frontier small; the fine grid is the one on which option-table
// evaluation and the block frontiers (117^2 = 13,689 candidates) are large,
// so it pins the single-cache optimizers, the scheme frontiers and the
// Explorer's Section 4/5 sweeps at full precision.  Each section is
// rendered at 1 and at 4 threads and compared byte for byte against
// tests/data/fine_grid_golden.txt.
//
// Regenerating the golden after an *intentional* model change:
//   NANOCACHE_REGEN_GOLDEN=1 ./tests/test_fine_grid_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/explorer.h"
#include "core/report.h"
#include "opt/schemes.h"
#include "util/parallel.h"

namespace nanocache {
namespace {

std::string golden_path() {
  return std::string(NANOCACHE_TEST_DATA_DIR) + "/fine_grid_golden.txt";
}

core::ExperimentConfig fine_config() {
  core::ExperimentConfig config;
  config.grid = opt::KnobGrid::fine();
  return config;
}

void put_result(std::ostream& os, const opt::SchemeResult& r) {
  os << r.access_time_s << ' ' << r.leakage_w << ' ' << r.dynamic_energy_j;
  for (const auto kind : cachemodel::kAllComponents) {
    const auto& k = r.assignment.get(kind);
    os << ' ' << k.vth_v << '/' << k.tox_a
       << (r.assignment.gated(kind) ? "g" : "");
  }
  os << '\n';
}

void put_outcome(std::ostream& os,
                 const opt::OptOutcome<opt::SchemeResult>& r) {
  if (r) {
    put_result(os, *r);
  } else {
    os << "infeasible: " << r.why().describe() << '\n';
  }
}

/// Everything the golden pins, rendered with the pool default at `threads`.
std::string render_all(int threads) {
  par::set_default_threads(threads);
  std::ostringstream os;
  os.precision(17);
  const core::Explorer explorer(fine_config());
  const auto& grid = explorer.config().grid;
  const std::uint64_t size = explorer.config().l1_size_bytes;
  const auto eval = opt::structural_evaluator(explorer.l1_model(size));
  const opt::Scheme schemes[] = {opt::Scheme::kPerComponent,
                                 opt::Scheme::kArrayPeriphery,
                                 opt::Scheme::kUniform};

  for (const auto scheme : schemes) {
    const auto front = opt::scheme_frontier(eval, grid, scheme);
    os << "# frontier " << opt::scheme_name(scheme) << ": " << front.size()
       << " points\n";
    for (const auto& r : front) put_result(os, r);
  }

  const auto ladder = explorer.delay_ladder(size, 7);
  for (const auto mode : {opt::SearchMode::kPruned,
                          opt::SearchMode::kExhaustive}) {
    for (const auto scheme : schemes) {
      os << "# optimize " << opt::scheme_name(scheme)
         << (mode == opt::SearchMode::kPruned ? " pruned" : " exhaustive")
         << '\n';
      for (const double target : ladder) {
        os << target << ' ';
        put_outcome(os, opt::optimize_single_cache(eval, grid, scheme, target,
                                                   mode));
      }
    }
  }

  os.precision(6);
  os << "# scheme comparison\n"
     << core::scheme_long_table(explorer.scheme_comparison(size, ladder));
  const double squeeze = explorer.l2_squeeze_target_s();
  os << "# L2 sweep, scheme III\n"
     << core::size_sweep_table(
            explorer.l2_size_sweep(opt::Scheme::kUniform, squeeze), "L2");
  os << "# L2 sweep, scheme II\n"
     << core::size_sweep_table(
            explorer.l2_size_sweep(opt::Scheme::kArrayPeriphery, squeeze),
            "L2");
  os << "# L1 sweep\n"
     << core::size_sweep_table(
            explorer.l1_size_sweep(explorer.l2_squeeze_target_s(1.25)), "L1");
  os << "# Figure 1\n"
     << core::fig1_long_table(explorer.fig1_fixed_knob(size));
  par::set_default_threads(0);
  return os.str();
}

TEST(FineGridGolden, MatchesGoldenAtOneAndFourThreads) {
  if (std::getenv("NANOCACHE_REGEN_GOLDEN") != nullptr) {
    std::ofstream(golden_path(), std::ios::binary) << render_all(1);
    GTEST_SKIP() << "golden regenerated";
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path();
  std::ostringstream golden;
  golden << in.rdbuf();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    // EXPECT_TRUE, not EXPECT_EQ: a mismatch would print both ~100 KB
    // renderings.
    EXPECT_TRUE(render_all(threads) == golden.str())
        << "fine-grid rendering differs from " << golden_path();
  }
}

}  // namespace
}  // namespace nanocache
