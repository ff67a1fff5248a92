// Scenario: a battery-powered device must hold its cache subsystem under a
// hard standby-power budget without giving up responsiveness.  The flow
// combines everything in the library: replay a representative workload
// against decay configurations, optimize the process knobs, and pick the
// cheapest combination that meets the budget.
#include <iostream>

#include "core/explorer.h"
#include "sim/hierarchy.h"
#include "sim/suite.h"
#include "util/table.h"
#include "util/units.h"

using namespace nanocache;

int main() {
  const double budget_mw = 3.0;  // standby budget for the 16KB L1
  constexpr double kSleepRatio = 0.05;

  // 1. Knob optimization at the required L1 access time.
  core::Explorer explorer;
  const auto& l1 = explorer.l1_model(16 * 1024);
  const auto eval = opt::structural_evaluator(l1);
  const auto& grid = explorer.config().grid;
  const double t_budget =
      opt::min_access_time(eval, grid, opt::Scheme::kArrayPeriphery) * 1.3;
  const auto knobs = opt::optimize_single_cache(
      eval, grid, opt::Scheme::kArrayPeriphery, t_budget);
  if (!knobs) {
    std::cout << "timing budget infeasible\n";
    return 1;
  }
  std::cout << "knob-optimized L1 leakage: "
            << fmt_fixed(units::watts_to_mw(knobs->leakage_w), 3)
            << " mW at "
            << fmt_fixed(units::seconds_to_ps(knobs->access_time_s), 0)
            << " pS\n\n";

  // 2. Sweep decay intervals, replaying the same deterministic workload
  //    stream for each one.
  TextTable t("decay sweep on the web workload (knob-optimized leakage)");
  t.set_header({"decay interval", "live lines", "L1 miss rate",
                "standby leakage [mW]", "meets " +
                    fmt_fixed(budget_mw, 1) + " mW budget?"});
  bool met = false;
  for (std::uint64_t interval : {0ull, 8192ull, 2048ull, 512ull}) {
    const auto replay = sim::make_workload("web");
    sim::SetAssociativeCache l1_sim(16 * 1024, 32, 2);
    if (interval) l1_sim.enable_decay(interval);
    sim::TwoLevelHierarchy hier(std::move(l1_sim),
                                sim::SetAssociativeCache(1024 * 1024, 64, 8));
    hier.warmup(*replay, 100'000);
    hier.run(*replay, 300'000);
    const double live = hier.l1().average_live_fraction();
    const double standby_mw = units::watts_to_mw(
        knobs->leakage_w * (live + kSleepRatio * (1.0 - live)));
    const bool ok = standby_mw <= budget_mw;
    met |= ok;
    t.add_row({interval == 0 ? "off" : std::to_string(interval),
               fmt_fixed(live * 100.0, 1) + "%",
               fmt_fixed(hier.stats().l1_miss_rate() * 100.0, 2) + "%",
               fmt_fixed(standby_mw, 3), ok ? "yes" : "no"});
  }
  std::cout << t << "\n"
            << (met ? "budget met: ship the knob assignment above plus the "
                      "slowest decay interval that fits.\n"
                    : "budget not met: consider a smaller L1 or a more "
                      "aggressive sleep transistor.\n");
  return 0;
}
