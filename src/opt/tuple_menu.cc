#include "opt/tuple_menu.h"

#include <array>
#include <limits>

#include "opt/engine.h"
#include "opt/pareto.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace_span.h"

namespace nanocache::opt {

using cachemodel::ComponentAssignment;
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

}  // namespace

TupleMenuSolver::TupleMenuSolver(const energy::MemorySystemModel& system,
                                 KnobGrid grid)
    : system_(system), grid_(std::move(grid)) {
  grid_.validate();
}

std::vector<SystemDesignPoint> TupleMenuSolver::designs_for_menu(
    const std::vector<double>& vth_menu,
    const std::vector<double>& tox_menu) const {
  const auto pairs = menu_pairs(vth_menu, tox_menu);
  const double ml1 = system_.miss().l1;

  // Per-system-component option tables with AMAT weights:
  // L1 components contribute delay/dynamic at weight 1, L2 at weight mL1.
  std::array<std::vector<ComponentOption>, kSystemComponents> options;
  const auto l1_eval =
      [this](ComponentKind kind, const tech::DeviceKnobs& k) {
        return system_.l1().component(kind, k);
      };
  const auto l2_eval =
      [this](ComponentKind kind, const tech::DeviceKnobs& k) {
        return system_.l2().component(kind, k);
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
    thin_to(next, state_cap_);
    combos = std::move(next);
  }

  // Materialize design points: energy uses the achieved AMAT.
  const double mem_amat = system_.memory_amat_term_s();
  const double mem_dyn = system_.memory_dynamic_energy_j();
  const double mem_background = system_.memory().background_power_w;
  std::vector<SystemDesignPoint> designs;
  designs.reserve(combos.size());
  for (const auto& c : combos) {
    SystemDesignPoint d;
    d.amat_s = c.wdelay_s + mem_amat;
    d.leakage_w = c.leakage_w + mem_background;
    d.energy_j = c.wdyn_j + mem_dyn + d.leakage_w * d.amat_s;
    for (std::size_t i = 0; i < kNumComponents; ++i) {
      d.l1.set(static_cast<ComponentKind>(i), options[i][c.choice[i]].knobs);
      d.l2.set(static_cast<ComponentKind>(i),
               options[kNumComponents + i][c.choice[kNumComponents + i]].knobs);
    }
    d.tox_menu = tox_menu;
    d.vth_menu = vth_menu;
    designs.push_back(std::move(d));
  }
  return designs;
}

std::vector<SystemDesignPoint> TupleMenuSolver::all_designs(
    const MenuSpec& spec) const {
  NC_REQUIRE(spec.num_tox >= 1 && spec.num_vth >= 1,
             "menu cardinalities must be >= 1");
  const auto tox_menus = choose_subsets(grid_.tox_values, spec.num_tox);
  const auto vth_menus = choose_subsets(grid_.vth_values, spec.num_vth);
  // The menu enumeration is the hot axis of the Figure 2 sweep: every menu
  // runs an independent Pareto-DP, so fan the (tox, vth) menu cross
  // product over the pool and concatenate per-menu results in enumeration
  // order — identical output at any thread count.
  const std::size_t nv = vth_menus.size();
  metrics::TraceSpan span("opt.tuple_menu.all_designs");
  static auto& menus =
      metrics::Registry::instance().counter("opt.menus_enumerated");
  menus.add(tox_menus.size() * nv);
  auto per_menu = par::parallel_map(
      tox_menus.size() * nv, [&](std::size_t i) {
        return designs_for_menu(vth_menus[i % nv], tox_menus[i / nv]);
      });
  std::vector<SystemDesignPoint> all;
  for (auto& designs : per_menu) {
    all.insert(all.end(), std::make_move_iterator(designs.begin()),
               std::make_move_iterator(designs.end()));
  }
  static auto& designs_considered =
      metrics::Registry::instance().counter("opt.designs_considered");
  designs_considered.add(all.size());
  return all;
}

std::vector<SystemDesignPoint> TupleMenuSolver::frontier(
    const MenuSpec& spec, std::size_t max_points) const {
  auto all = all_designs(spec);
  auto front = pareto_min2(
      std::move(all), [](const SystemDesignPoint& d) { return d.amat_s; },
      [](const SystemDesignPoint& d) { return d.energy_j; });
  thin_to(front, max_points);
  return front;
}

std::optional<SystemDesignPoint> TupleMenuSolver::best_at(
    const MenuSpec& spec, double amat_target_s) const {
  NC_REQUIRE(amat_target_s > 0.0, "AMAT target must be positive");
  std::optional<SystemDesignPoint> best;
  for (auto& d : all_designs(spec)) {
    if (d.amat_s > amat_target_s) continue;
    if (!best || d.energy_j < best->energy_j) best = std::move(d);
  }
  return best;
}

double TupleMenuSolver::min_amat_s(const MenuSpec& spec) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& d : all_designs(spec)) {
    best = std::min(best, d.amat_s);
  }
  return best;
}

}  // namespace nanocache::opt
