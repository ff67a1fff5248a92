#include "opt/tuple_menu.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>

#include "opt/engine.h"
#include "opt/pareto.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace_span.h"

namespace nanocache::opt {

using cachemodel::ComponentKind;
using cachemodel::kAllComponents;
using cachemodel::kNumComponents;

namespace {

constexpr std::size_t kSystemComponents = 2 * kNumComponents;  // L1 + L2

/// DP state across the eight system components.
struct SysCombo {
  double wdelay_s = 0.0;   ///< AMAT-weighted delay sum
  double leakage_w = 0.0;
  double wdyn_j = 0.0;     ///< access-weighted dynamic energy
  std::array<std::uint16_t, kSystemComponents> choice{};
};

/// Strict-only weak-dominance pre-filter on one weighted option table:
/// drop an option iff another is <= in all three objectives and strictly
/// better in at least one.  Exact full ties are kept and survivor order is
/// preserved, so the DP's stable first-wins representative choice — and
/// with it every materialized design — is untouched (docs/MODELING.md §10).
std::vector<ComponentOption> prefilter_options(
    std::vector<ComponentOption> table) {
  std::vector<ComponentOption> kept;
  kept.reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < table.size() && !dominated; ++j) {
      if (j == i) continue;
      const auto& a = table[j];
      const auto& b = table[i];
      dominated = a.delay_s <= b.delay_s && a.leakage_w <= b.leakage_w &&
                  a.dynamic_j <= b.dynamic_j &&
                  (a.delay_s < b.delay_s || a.leakage_w < b.leakage_w ||
                   a.dynamic_j < b.dynamic_j);
    }
    if (!dominated) kept.push_back(table[i]);
  }
  return kept;
}

/// Per-system-component option tables, AMAT-weighted.
using OptionTables = std::array<std::vector<ComponentOption>, kSystemComponents>;

/// One menu's Pareto-DP: its option tables and surviving states.
struct MenuDp {
  OptionTables options;
  std::vector<SysCombo> combos;
};

MenuDp run_menu_dp(const energy::MemorySystemModel& system,
                   const std::vector<double>& vth_menu,
                   const std::vector<double>& tox_menu,
                   std::size_t state_cap) {
  const auto pairs = menu_pairs(vth_menu, tox_menu);
  const double ml1 = system.miss().l1;

  // Per-system-component option tables with AMAT weights:
  // L1 components contribute delay/dynamic at weight 1, L2 at weight mL1.
  MenuDp dp;
  auto& options = dp.options;
  const auto l1_eval =
      [&system](ComponentKind kind, const tech::DeviceKnobs& k) {
        return system.l1().component(kind, k);
      };
  const auto l2_eval =
      [&system](ComponentKind kind, const tech::DeviceKnobs& k) {
        return system.l2().component(kind, k);
      };
  std::array<std::size_t, kSystemComponents> full_n{};
  for (ComponentKind kind : kAllComponents) {
    const auto i = static_cast<std::size_t>(kind);
    options[i] = component_options(l1_eval, kind, pairs);
    options[kNumComponents + i] = component_options(l2_eval, kind, pairs);
    for (auto& o : options[kNumComponents + i]) {
      o.delay_s *= ml1;
      o.dynamic_j *= ml1;
    }
  }
  // Dominance-prune each weighted table before the DP forms products.
  for (std::size_t i = 0; i < kSystemComponents; ++i) {
    full_n[i] = options[i].size();
    options[i] = prefilter_options(std::move(options[i]));
  }

  // Pareto-DP over the eight components.
  std::vector<SysCombo> combos{SysCombo{}};
  for (std::size_t ci = 0; ci < kSystemComponents; ++ci) {
    detail::count_combos_evaluated(combos.size() * options[ci].size());
    detail::count_combos_skipped(combos.size() *
                                 (full_n[ci] - options[ci].size()));
    std::vector<SysCombo> next;
    next.reserve(combos.size() * options[ci].size());
    for (const auto& c : combos) {
      for (std::size_t oi = 0; oi < options[ci].size(); ++oi) {
        SysCombo n = c;
        n.wdelay_s += options[ci][oi].delay_s;
        n.leakage_w += options[ci][oi].leakage_w;
        n.wdyn_j += options[ci][oi].dynamic_j;
        n.choice[ci] = static_cast<std::uint16_t>(oi);
        next.push_back(n);
      }
    }
    next = pareto_min3(
        std::move(next), [](const SysCombo& c) { return c.wdelay_s; },
        [](const SysCombo& c) { return c.leakage_w; },
        [](const SysCombo& c) { return c.wdyn_j; });
    thin_to(next, state_cap);
    combos = std::move(next);
  }
  dp.combos = std::move(combos);
  return dp;
}

/// Main-memory terms every system design adds to its DP sums.
struct MemoryTerms {
  double amat_s = 0.0;
  double dynamic_j = 0.0;
  double background_w = 0.0;
};

/// System metrics of one DP state.  The only place they are computed, so a
/// scanned state and the design materialized from it agree bit for bit.
struct StateMetrics {
  double amat_s = 0.0;
  double leakage_w = 0.0;
  double energy_j = 0.0;
};

StateMetrics state_metrics(const SysCombo& c, const MemoryTerms& mem) {
  StateMetrics m;
  m.amat_s = c.wdelay_s + mem.amat_s;
  m.leakage_w = c.leakage_w + mem.background_w;
  // Energy uses the achieved AMAT.
  m.energy_j = c.wdyn_j + mem.dynamic_j + m.leakage_w * m.amat_s;
  return m;
}

SystemDesignPoint materialize(const OptionTables& options, const SysCombo& c,
                              const MemoryTerms& mem,
                              const std::vector<double>& vth_menu,
                              const std::vector<double>& tox_menu) {
  const auto m = state_metrics(c, mem);
  SystemDesignPoint d;
  d.amat_s = m.amat_s;
  d.leakage_w = m.leakage_w;
  d.energy_j = m.energy_j;
  for (std::size_t i = 0; i < kNumComponents; ++i) {
    d.l1.set(static_cast<ComponentKind>(i), options[i][c.choice[i]].knobs);
    d.l2.set(static_cast<ComponentKind>(i),
             options[kNumComponents + i][c.choice[kNumComponents + i]].knobs);
  }
  d.tox_menu = tox_menu;
  d.vth_menu = vth_menu;
  return d;
}

/// A frontier candidate: one DP state of one menu, not yet materialized.
struct FrontRecord {
  double amat_s = 0.0;
  double energy_j = 0.0;
  std::size_t menu = 0;
  SysCombo state;
};

std::vector<FrontRecord> pareto_records(std::vector<FrontRecord> records) {
  return pareto_min2(
      std::move(records), [](const FrontRecord& r) { return r.amat_s; },
      [](const FrontRecord& r) { return r.energy_j; });
}

/// What one menu contributes to a MenuSolution.
struct MenuScan {
  double min_amat_s = std::numeric_limits<double>::infinity();
  /// Per target: the menu's first strictly-lowest-energy feasible design.
  std::vector<std::optional<SystemDesignPoint>> best;
  std::size_t states = 0;
  /// Frontier requests only: the menu's option tables and its states on
  /// the menu-local (AMAT, energy) front.
  OptionTables options;
  std::vector<FrontRecord> front;
};

}  // namespace

TupleMenuSolver::TupleMenuSolver(const energy::MemorySystemModel& system,
                                 KnobGrid grid)
    : system_(system), grid_(std::move(grid)) {
  grid_.validate();
}

MenuSolution TupleMenuSolver::solve(
    const MenuSpec& spec, const std::vector<double>& amat_targets_s,
    std::optional<std::size_t> frontier_max_points) const {
  for (const double target : amat_targets_s) {
    NC_REQUIRE(target > 0.0, "AMAT target must be positive");
  }
  NC_REQUIRE(spec.num_tox >= 1 && spec.num_vth >= 1,
             "menu cardinalities must be >= 1");
  const auto tox_menus = choose_subsets(grid_.tox_values, spec.num_tox);
  const auto vth_menus = choose_subsets(grid_.vth_values, spec.num_vth);
  const std::size_t nv = vth_menus.size();
  const std::size_t num_menus = tox_menus.size() * nv;
  const std::size_t num_targets = amat_targets_s.size();
  const MemoryTerms mem{system_.memory_amat_term_s(),
                        system_.memory_dynamic_energy_j(),
                        system_.memory().background_power_w};

  metrics::TraceSpan span("opt.tuple_menu.solve");
  static auto& menus =
      metrics::Registry::instance().counter("opt.menus_enumerated");
  menus.add(num_menus);

  // The menu enumeration is the hot axis of the Figure 2 sweep: every menu
  // runs an independent Pareto-DP, so fan the (tox, vth) menu cross
  // product over the pool.  Each task keeps only its menu's winners, and
  // the folds below visit menus in enumeration order — the same
  // first-wins order as one scan over every design, at any thread count.
  auto scans = par::parallel_map(num_menus, [&](std::size_t i) {
    const auto& vth_menu = vth_menus[i % nv];
    const auto& tox_menu = tox_menus[i / nv];
    MenuScan scan;
    MenuDp dp = run_menu_dp(system_, vth_menu, tox_menu, state_cap_);
    scan.states = dp.combos.size();
    std::vector<const SysCombo*> winner(num_targets, nullptr);
    std::vector<double> winner_energy(num_targets);
    std::vector<FrontRecord> records;
    if (frontier_max_points) records.reserve(dp.combos.size());
    for (std::size_t c = 0; c < dp.combos.size(); ++c) {
      const auto m = state_metrics(dp.combos[c], mem);
      scan.min_amat_s = std::min(scan.min_amat_s, m.amat_s);
      for (std::size_t t = 0; t < num_targets; ++t) {
        if (m.amat_s > amat_targets_s[t]) continue;
        if (winner[t] == nullptr || m.energy_j < winner_energy[t]) {
          winner[t] = &dp.combos[c];
          winner_energy[t] = m.energy_j;
        }
      }
      if (frontier_max_points) {
        records.push_back({m.amat_s, m.energy_j, i, dp.combos[c]});
      }
    }
    scan.best.resize(num_targets);
    for (std::size_t t = 0; t < num_targets; ++t) {
      if (winner[t] != nullptr) {
        scan.best[t] =
            materialize(dp.options, *winner[t], mem, vth_menu, tox_menu);
      }
    }
    if (frontier_max_points) {
      // A state off its own menu's front is off the global front too
      // (pareto_min2's chunked-prefilter argument), so only the local
      // front is kept.
      scan.front = pareto_records(std::move(records));
      scan.options = std::move(dp.options);
    }
    return scan;
  });

  MenuSolution out;
  out.best.resize(num_targets);
  std::size_t states = 0;
  for (auto& scan : scans) {
    states += scan.states;
    out.min_amat_s = std::min(out.min_amat_s, scan.min_amat_s);
    for (std::size_t t = 0; t < num_targets; ++t) {
      auto& menu_best = scan.best[t];
      if (menu_best &&
          (!out.best[t] || menu_best->energy_j < out.best[t]->energy_j)) {
        out.best[t] = std::move(menu_best);
      }
    }
  }
  static auto& designs_considered =
      metrics::Registry::instance().counter("opt.designs_considered");
  designs_considered.add(states);

  if (frontier_max_points) {
    std::vector<FrontRecord> records;
    for (auto& scan : scans) {
      records.insert(records.end(), scan.front.begin(), scan.front.end());
    }
    auto front = pareto_records(std::move(records));
    // thin_to keeps both ends, so it treats caps below 2 as "no cap"; a
    // one-point frontier is the fastest point alone.
    if (*frontier_max_points == 1 && !front.empty()) front.resize(1);
    thin_to(front, *frontier_max_points);
    out.frontier.reserve(front.size());
    for (const auto& r : front) {
      out.frontier.push_back(materialize(scans[r.menu].options, r.state, mem,
                                         vth_menus[r.menu % nv],
                                         tox_menus[r.menu / nv]));
    }
  }
  return out;
}

std::vector<SystemDesignPoint> TupleMenuSolver::frontier(
    const MenuSpec& spec, std::size_t max_points) const {
  return solve(spec, {}, max_points).frontier;
}

std::optional<SystemDesignPoint> TupleMenuSolver::best_at(
    const MenuSpec& spec, double amat_target_s) const {
  return std::move(solve(spec, {amat_target_s}).best.front());
}

double TupleMenuSolver::min_amat_s(const MenuSpec& spec) const {
  return solve(spec, {}).min_amat_s;
}

}  // namespace nanocache::opt
