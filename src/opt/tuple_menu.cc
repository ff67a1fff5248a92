#include "opt/tuple_menu.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
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

using detail::kSystemComponents;
using detail::SysCombo;

namespace {

/// Menus solved per wave.  Fixed, never the thread count, so the set of
/// menus a request solves — and every counter — is the same at any thread
/// count (docs/MODELING.md §14).
constexpr std::size_t kWaveWidth = 8;

/// Relative margin taken off the McCormick bound: far above the rounding
/// error of either side of the inequality (docs/MODELING.md §14).
constexpr double kMcCormickMargin = 1e-9;

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

/// Main-memory terms every system design adds to its DP sums.
struct MemoryTerms {
  double amat_s = 0.0;
  double dynamic_j = 0.0;
  double background_w = 0.0;
};

MemoryTerms memory_terms(const energy::MemorySystemModel& system) {
  return {system.memory_amat_term_s(), system.memory_dynamic_energy_j(),
          system.memory().background_power_w};
}

/// System metrics of one DP state.  The only place they are computed, so a
/// scanned state, a design materialized from it and the bounds agree bit
/// for bit.
struct StateMetrics {
  double amat_s = 0.0;
  double leakage_w = 0.0;
  double energy_j = 0.0;
};

StateMetrics state_metrics(double wdelay_s, double leakage_w, double wdyn_j,
                           const MemoryTerms& mem) {
  StateMetrics m;
  m.amat_s = wdelay_s + mem.amat_s;
  m.leakage_w = leakage_w + mem.background_w;
  // Energy uses the achieved AMAT.
  m.energy_j = wdyn_j + mem.dynamic_j + m.leakage_w * m.amat_s;
  return m;
}

StateMetrics state_metrics(const SysCombo& c, const MemoryTerms& mem) {
  return state_metrics(c.wdelay_s, c.leakage_w, c.wdyn_j, mem);
}

/// Every (Vth, Tox) grid pair evaluated once per system component, in
/// menu_pairs(vth grid, tox grid) order, with the AMAT weights applied:
/// L1 components contribute delay/dynamic at weight 1, L2 at weight mL1.
OptionTables grid_tables(const energy::MemorySystemModel& system,
                         const KnobGrid& grid) {
  const auto pairs = menu_pairs(grid.vth_values, grid.tox_values);
  const double ml1 = system.miss().l1;
  const auto l1_eval =
      [&system](ComponentKind kind, const tech::DeviceKnobs& k) {
        return system.l1().component(kind, k);
      };
  const auto l2_eval =
      [&system](ComponentKind kind, const tech::DeviceKnobs& k) {
        return system.l2().component(kind, k);
      };
  OptionTables tables;
  for (ComponentKind kind : kAllComponents) {
    const auto i = static_cast<std::size_t>(kind);
    tables[i] = component_options(l1_eval, kind, pairs);
    tables[kNumComponents + i] = component_options(l2_eval, kind, pairs);
    for (auto& o : tables[kNumComponents + i]) {
      o.delay_s *= ml1;
      o.dynamic_j *= ml1;
    }
  }
  return tables;
}

/// A component's least delay, leakage and dynamic energy, each over all of
/// its options.
struct OptionFloor {
  double delay_s = 0.0;
  double leakage_w = 0.0;
  double dynamic_j = 0.0;
};

/// One menu ready for its DP: the weighted, prefiltered option tables, their
/// per-component floors and the two numbers the bound pass derives from them.
struct Menu {
  OptionTables options;
  std::array<std::size_t, kSystemComponents> full_n{};  ///< before prefilter
  std::array<OptionFloor, kSystemComponents> floors{};
  detail::MenuBounds bounds;
};

/// Positions of a menu's values in their (strictly increasing) grid axis.
std::vector<std::size_t> grid_indices(const std::vector<double>& axis,
                                      const std::vector<double>& menu) {
  std::vector<std::size_t> out;
  out.reserve(menu.size());
  for (const double v : menu) {
    out.push_back(static_cast<std::size_t>(
        std::lower_bound(axis.begin(), axis.end(), v) - axis.begin()));
  }
  return out;
}

Menu prepare_menu(const OptionTables& grid_options, const KnobGrid& grid,
                  const std::vector<double>& vth_menu,
                  const std::vector<double>& tox_menu,
                  const MemoryTerms& mem) {
  // Slice the grid tables in menu_pairs(vth_menu, tox_menu) order, then
  // dominance-prune each weighted table before the DP forms products.
  const auto vi = grid_indices(grid.vth_values, vth_menu);
  const auto ti = grid_indices(grid.tox_values, tox_menu);
  const std::size_t ntox = grid.tox_values.size();
  Menu menu;
  for (std::size_t c = 0; c < kSystemComponents; ++c) {
    std::vector<ComponentOption> table;
    table.reserve(vi.size() * ti.size());
    for (const std::size_t v : vi) {
      for (const std::size_t t : ti) {
        table.push_back(grid_options[c][v * ntox + t]);
      }
    }
    menu.full_n[c] = table.size();
    menu.options[c] = prefilter_options(std::move(table));
  }

  // Per-component minima summed in the DP's component order: the DP keeps
  // its least-wdelay state through every step, so this AMAT is its fastest
  // state's, bit for bit, and the simple bound is state_metrics of the
  // minima.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SysCombo floor;
  for (std::size_t c = 0; c < kSystemComponents; ++c) {
    OptionFloor least{kInf, kInf, kInf};
    for (const auto& o : menu.options[c]) {
      least.delay_s = std::min(least.delay_s, o.delay_s);
      least.leakage_w = std::min(least.leakage_w, o.leakage_w);
      least.dynamic_j = std::min(least.dynamic_j, o.dynamic_j);
    }
    menu.floors[c] = least;
    floor.wdelay_s += least.delay_s;
    floor.leakage_w += least.leakage_w;
    floor.wdyn_j += least.dynamic_j;
  }
  const auto simple = state_metrics(floor, mem);
  const double amin = simple.amat_s;
  const double lmin = simple.leakage_w;

  // McCormick: (L - Lmin)(A - Amin) >= 0 makes L·A >= Lmin·A + Amin·L -
  // Lmin·Amin, which is separable per component.
  double s = 0.0;
  for (const auto& table : menu.options) {
    double best = kInf;
    for (const auto& o : table) {
      best = std::min(best, o.dynamic_j + lmin * o.delay_s + amin * o.leakage_w);
    }
    s += best;
  }
  s += mem.dynamic_j + lmin * mem.amat_s + amin * mem.background_w;
  const double mccormick = s - lmin * amin - kMcCormickMargin * s;

  menu.bounds = {amin, std::max(simple.energy_j, mccormick)};
  return menu;
}

/// One extension of a DP step: a state plus one option, keyed.  No
/// default initializers, so growing the key buffer writes nothing.
struct StepKey {
  double wdelay_s;
  double leakage_w;
  double wdyn_j;
  std::uint32_t state;  ///< index into the step's input states
};

/// The order the front is swept in: (wdelay, leakage, wdyn).
bool key_less(const StepKey& a, const StepKey& b) {
  if (a.wdelay_s != b.wdelay_s) return a.wdelay_s < b.wdelay_s;
  if (a.leakage_w != b.leakage_w) return a.leakage_w < b.leakage_w;
  return a.wdyn_j < b.wdyn_j;
}

/// The most energy a state may have and still beat an incumbent, as a
/// function of its AMAT: the largest incumbent energy over the targets that
/// AMAT meets (+inf for a target with no incumbent yet), -inf when it meets
/// none.
class EnergyCeiling {
 public:
  EnergyCeiling(const std::vector<double>& amat_targets_s,
                const std::vector<double>& incumbent_j) {
    std::vector<std::size_t> order(amat_targets_s.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return amat_targets_s[a] < amat_targets_s[b];
    });
    for (const std::size_t t : order) {
      amat_s_.push_back(amat_targets_s[t]);
      energy_j_.push_back(incumbent_j[t]);
    }
    for (std::size_t i = energy_j_.size(); i > 1; --i) {
      energy_j_[i - 2] = std::max(energy_j_[i - 2], energy_j_[i - 1]);
    }
  }

  double at(double amat_s) const {
    const auto it = std::lower_bound(amat_s_.begin(), amat_s_.end(), amat_s);
    return it == amat_s_.end()
               ? -std::numeric_limits<double>::infinity()
               : energy_j_[static_cast<std::size_t>(it - amat_s_.begin())];
  }

 private:
  std::vector<double> amat_s_;    ///< the targets, ascending
  std::vector<double> energy_j_;  ///< max incumbent energy from here on
};

/// A pruned DP's test (docs/MODELING.md §14): finish a key with each later
/// component's floor, added in DP order, and keep the key iff the energy of
/// that floor state is at most the ceiling at its AMAT.  Every completion of
/// the key, and of any key it dominates or extends to, is at or above the
/// floor state in all three sums, so nothing a dropped key leads to can beat
/// an incumbent.
class KeyFilter {
 public:
  KeyFilter(const Menu& menu, const MemoryTerms& mem,
            const EnergyCeiling& ceiling)
      : floors_(menu.floors), mem_(mem), ceiling_(ceiling) {}

  bool keep(const StepKey& key, std::size_t component) const {
    double wdelay = key.wdelay_s;
    double leakage = key.leakage_w;
    double wdyn = key.wdyn_j;
    for (std::size_t c = component + 1; c < kSystemComponents; ++c) {
      wdelay += floors_[c].delay_s;
      leakage += floors_[c].leakage_w;
      wdyn += floors_[c].dynamic_j;
    }
    const auto m = state_metrics(wdelay, leakage, wdyn, mem_);
    return m.energy_j <= ceiling_.at(m.amat_s);
  }

 private:
  const std::array<OptionFloor, kSystemComponents>& floors_;
  const MemoryTerms& mem_;
  const EnergyCeiling& ceiling_;
};

/// One DP step as a merge: option o's extensions form run o, in state
/// order; the runs are merged by (key, state, option), which is the order
/// a stable sort of the state-major extensions yields, and each merged key
/// goes straight through the staircase test.  Only survivors become
/// SysCombos.  With a filter, the keys it drops never enter a run.  The
/// buffers are reused across the steps of one DP call (docs/MODELING.md
/// §14).
class ParetoStep {
 public:
  void run(const std::vector<SysCombo>& states,
           const std::vector<ComponentOption>& options, std::size_t component,
           std::vector<SysCombo>& front, const KeyFilter* filter = nullptr) {
    NC_REQUIRE(states.size() < std::numeric_limits<std::uint32_t>::max(),
               "too many DP states");
    const std::size_t keys = fill_runs(states, options, component, filter);
    stair_y_.assign(1, -kInf);  // sentinel: precedes every point, never
    stair_z_.assign(1, kInf);   // dominates one, never erased
    front.clear();
    for (std::size_t left = keys; left > 0; --left) {
      const std::size_t o = pick_run();
      const StepKey& key = keys_[head_[o]];
      ++head_[o];
      head_wdelay_[o] = keys_[head_[o]].wdelay_s;
      if (!accept(key.leakage_w, key.wdyn_j)) continue;
      SysCombo c = states[key.state];
      c.wdelay_s = key.wdelay_s;
      c.leakage_w = key.leakage_w;
      c.wdyn_j = key.wdyn_j;
      c.choice[component] = static_cast<std::uint16_t>(o);
      front.push_back(c);
    }
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Key every extension the filter keeps, run by run, each run closed by
  /// a sentinel that sorts after every key; returns how many keys the runs
  /// hold.  Adding an option's constants is monotone only in wdelay:
  /// rounding can tie two wdelays that differ, and leakage then orders them
  /// the other way, so a run found out of order is stable-sorted, which
  /// keeps state order among equal keys.
  std::size_t fill_runs(const std::vector<SysCombo>& states,
                        const std::vector<ComponentOption>& options,
                        std::size_t component, const KeyFilter* filter) {
    const std::size_t n = states.size();
    const std::size_t stride = n + 1;
    if (keys_size_ < options.size() * stride) {
      keys_size_ = 2 * options.size() * stride;
      keys_ = std::make_unique_for_overwrite<StepKey[]>(keys_size_);
    }
    head_.resize(options.size());
    head_wdelay_.resize(options.size());
    std::size_t total = 0;
    for (std::size_t o = 0; o < options.size(); ++o) {
      StepKey* keys = keys_.get() + o * stride;
      total += filter == nullptr
                   ? fill_run(states, options[o], keys,
                              [](const StepKey&) { return true; })
                   : fill_run(states, options[o], keys,
                              [&](const StepKey& key) {
                                return filter->keep(key, component);
                              });
      head_[o] = o * stride;
      head_wdelay_[o] = keys[0].wdelay_s;
    }
    return total;
  }

  /// One option's run: the kept keys in order, then the sentinel; returns
  /// how many were kept.  A template, so the unpruned DP's loop carries no
  /// per-key filter test.
  template <class Keep>
  static std::size_t fill_run(const std::vector<SysCombo>& states,
                              const ComponentOption& opt, StepKey* keys,
                              Keep keep) {
    std::size_t kept = 0;
    bool sorted = true;
    for (std::size_t m = 0; m < states.size(); ++m) {
      const auto& s = states[m];
      const StepKey key{s.wdelay_s + opt.delay_s, s.leakage_w + opt.leakage_w,
                        s.wdyn_j + opt.dynamic_j,
                        static_cast<std::uint32_t>(m)};
      if (!keep(key)) continue;
      if (kept > 0 && key_less(key, keys[kept - 1])) sorted = false;
      keys[kept++] = key;
    }
    if (!sorted) std::stable_sort(keys, keys + kept, key_less);
    keys[kept] = {kInf, kInf, kInf, std::numeric_limits<std::uint32_t>::max()};
    return kept;
  }

  /// The run whose head comes first in (key, state, option) order.  The
  /// least head wdelay is found without branches; the full comparison
  /// runs only when several heads tie on it exactly.
  std::size_t pick_run() const {
    const std::size_t k = head_wdelay_.size();
    const double* w = head_wdelay_.data();
    std::size_t pick = 0;
    double least = w[0];
    for (std::size_t o = 1; o < k; ++o) {
      const bool lower = w[o] < least;
      least = lower ? w[o] : least;
      pick = lower ? o : pick;
    }
    std::size_t ties = 0;
    for (std::size_t o = 0; o < k; ++o) ties += w[o] == least;
    if (ties == 1) return pick;
    for (std::size_t o = pick + 1; o < k; ++o) {
      if (w[o] != least) continue;
      const StepKey& a = keys_[head_[o]];
      const StepKey& b = keys_[head_[pick]];
      if (key_less(a, b) || (!key_less(b, a) && a.state < b.state)) pick = o;
    }
    return pick;
  }

  /// The staircase test: every point accepted so far has wdelay <= this
  /// one's, so it is dominated iff some accepted point has leakage <= y and
  /// wdyn <= z.  The staircase holds the accepted (y, z) minima, y strictly
  /// rising and z strictly falling; an accepted point replaces the entries
  /// it dominates.
  bool accept(double y, double z) {
    const double* ys = stair_y_.data();
    // Entries with y' <= y, by a branch-free binary search; the sentinel
    // makes it at least 1.
    std::size_t pos = 0;
    std::size_t len = stair_y_.size();
    while (len > 1) {
      const std::size_t half = len / 2;
      pos += ys[pos + half - 1] <= y ? half : 0;
      len -= half;
    }
    const std::size_t le = pos + (ys[pos] <= y ? 1 : 0);
    if (stair_z_[le - 1] <= z) return false;
    // Entries from the first with y' >= y on, while z' >= z, are dominated.
    const std::size_t lo = ys[le - 1] == y ? le - 1 : le;
    std::size_t hi = lo;
    while (hi < stair_z_.size() && stair_z_[hi] >= z) ++hi;
    if (hi == lo) {
      stair_y_.insert(stair_y_.begin() + static_cast<std::ptrdiff_t>(lo), y);
      stair_z_.insert(stair_z_.begin() + static_cast<std::ptrdiff_t>(lo), z);
    } else {
      stair_y_[lo] = y;
      stair_z_[lo] = z;
      stair_y_.erase(stair_y_.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                     stair_y_.begin() + static_cast<std::ptrdiff_t>(hi));
      stair_z_.erase(stair_z_.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                     stair_z_.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    return true;
  }

  std::unique_ptr<StepKey[]> keys_;   ///< run o at [o·(n+1), (o+1)·(n+1))
  std::size_t keys_size_ = 0;
  std::vector<std::size_t> head_;     ///< per run: its next key in keys_
  std::vector<double> head_wdelay_;   ///< per run: that key's wdelay
  std::vector<double> stair_y_;
  std::vector<double> stair_z_;
};

/// What one menu's DP keeps: its last step's states, and whether the state
/// cap thinned any step.
struct MenuDp {
  std::vector<SysCombo> states{SysCombo{}};
  bool thinned = false;
};

/// One menu's Pareto-DP over the eight components, pruned by `filter` when
/// one is given.  `visit`, when set, sees each step as menu `index`'s
/// (detail::visit_dp_steps).
MenuDp run_menu_dp(const Menu& menu, std::size_t state_cap,
                   const KeyFilter* filter = nullptr,
                   const detail::DpStepVisitor* visit = nullptr,
                   std::size_t index = 0) {
  const auto& options = menu.options;
  ParetoStep step;
  MenuDp dp;
  auto& combos = dp.states;
  std::vector<SysCombo> next;
  for (std::size_t ci = 0; ci < kSystemComponents; ++ci) {
    detail::count_combos_evaluated(combos.size() * options[ci].size());
    detail::count_combos_skipped(combos.size() *
                                 (menu.full_n[ci] - options[ci].size()));
    step.run(combos, options[ci], ci, next, filter);
    if (visit) (*visit)(index, ci, combos, options[ci], next);
    const std::size_t front = next.size();
    thin_to(next, state_cap);
    dp.thinned = dp.thinned || next.size() != front;
    std::swap(combos, next);
  }
  return dp;
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

/// One DP state of one menu, not yet materialized: a target's candidate or
/// a frontier record.
struct StateRecord {
  double amat_s = 0.0;
  double energy_j = 0.0;
  std::size_t menu = 0;
  SysCombo state;
};

std::vector<StateRecord> pareto_records(std::vector<StateRecord> records) {
  return pareto_min2(
      std::move(records), [](const StateRecord& r) { return r.amat_s; },
      [](const StateRecord& r) { return r.energy_j; });
}

/// True when `b` beats the incumbent `a`: lower energy, or equal energy
/// from an earlier menu.  The same winner as a first-wins fold in menu
/// order, whatever order the menus are solved in.
bool beats(const StateRecord& b, const std::optional<StateRecord>& a) {
  return !a || b.energy_j < a->energy_j ||
         (b.energy_j == a->energy_j && b.menu < a->menu);
}

/// What one solved menu contributes to a MenuSolution.
struct MenuScan {
  /// Per target: the menu's first strictly-lowest-energy feasible state.
  std::vector<std::optional<StateRecord>> best;
  std::size_t states = 0;
  bool thinned = false;  ///< the state cap thinned a step of the DP
  /// Frontier requests only: the states on the menu-local (AMAT, energy)
  /// front.
  std::vector<StateRecord> front;
};

MenuScan scan_menu(std::size_t index, const Menu& menu,
                   const std::vector<double>& amat_targets_s, bool frontier,
                   const MemoryTerms& mem,
                   const EnergyCeiling* ceiling = nullptr) {
  std::optional<KeyFilter> filter;
  if (ceiling != nullptr) filter.emplace(menu, mem, *ceiling);
  const auto dp = run_menu_dp(menu, TupleMenuSolver::kStateCap,
                              filter ? &*filter : nullptr);
  const auto& combos = dp.states;
  MenuScan scan;
  scan.states = combos.size();
  scan.thinned = dp.thinned;
  scan.best.resize(amat_targets_s.size());
  std::vector<StateRecord> records;
  if (frontier) records.reserve(combos.size());
  for (const auto& c : combos) {
    const auto m = state_metrics(c, mem);
    const StateRecord record{m.amat_s, m.energy_j, index, c};
    for (std::size_t t = 0; t < amat_targets_s.size(); ++t) {
      if (m.amat_s > amat_targets_s[t]) continue;
      auto& best = scan.best[t];
      if (!best || m.energy_j < best->energy_j) best = record;
    }
    if (frontier) records.push_back(record);
  }
  // A state off its own menu's front is off the global front too (the
  // state that dominates it is a candidate there), so only the local front
  // is kept.
  if (frontier) scan.front = pareto_records(std::move(records));
  return scan;
}

/// True when a point of `front` (sorted by AMAT, energy strictly falling)
/// has AMAT <= `amat_s` and energy <= `energy_j`, one of the two strictly:
/// then no state at or above those floors can reach the global front.
bool front_excludes(const std::vector<StateRecord>& front, double amat_s,
                    double energy_j) {
  // Of the points with AMAT <= amat_s, the last has the least energy.
  const auto it = std::upper_bound(
      front.begin(), front.end(), amat_s,
      [](double a, const StateRecord& r) { return a < r.amat_s; });
  if (it == front.begin()) return false;
  const auto& p = *std::prev(it);
  return p.energy_j < energy_j || (p.energy_j == energy_j && p.amat_s < amat_s);
}

/// The menus of a spec with their tables and bounds, in enumeration order
/// (Tox-major): menu i pairs tox_menus[i / nv] with vth_menus[i % nv].
struct MenuSet {
  std::vector<std::vector<double>> tox_menus;
  std::vector<std::vector<double>> vth_menus;
  std::vector<Menu> menus;

  const std::vector<double>& vth(std::size_t i) const {
    return vth_menus[i % vth_menus.size()];
  }
  const std::vector<double>& tox(std::size_t i) const {
    return tox_menus[i / vth_menus.size()];
  }
};

/// The bound pass: every grid pair evaluated once, then each menu's tables
/// sliced, prefiltered and bounded in parallel.
MenuSet bound_menus(const energy::MemorySystemModel& system,
                    const KnobGrid& grid, const MenuSpec& spec,
                    const MemoryTerms& mem) {
  NC_REQUIRE(spec.num_tox >= 1 && spec.num_vth >= 1,
             "menu cardinalities must be >= 1");
  MenuSet set;
  set.tox_menus = choose_subsets(grid.tox_values, spec.num_tox);
  set.vth_menus = choose_subsets(grid.vth_values, spec.num_vth);
  const auto grid_options = grid_tables(system, grid);
  set.menus = par::parallel_map(
      set.tox_menus.size() * set.vth_menus.size(), [&](std::size_t i) {
        return prepare_menu(grid_options, grid, set.vth(i), set.tox(i), mem);
      });
  return set;
}

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
  metrics::TraceSpan span("opt.tuple_menu.solve");
  const MemoryTerms mem = memory_terms(system_);
  const MenuSet set = bound_menus(system_, grid_, spec, mem);
  const auto& menus = set.menus;
  const std::size_t num_menus = menus.size();
  const std::size_t num_targets = amat_targets_s.size();
  const bool frontier = frontier_max_points.has_value();

  static auto& menus_enumerated =
      metrics::Registry::instance().counter("opt.menus_enumerated");
  menus_enumerated.add(num_menus);

  MenuSolution out;
  for (const auto& menu : menus) {
    out.min_amat_s = std::min(out.min_amat_s, menu.bounds.min_amat_s);
  }

  // Solve in ascending-bound waves.  A menu stays pending while some
  // target or the frontier could still take one of its states; the
  // incumbents only improve, so a dropped menu is never needed again.
  std::vector<std::size_t> pending(num_menus);
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  std::sort(pending.begin(), pending.end(),
            [&](std::size_t a, std::size_t b) {
              const double la = menus[a].bounds.lower_bound_j;
              const double lb = menus[b].bounds.lower_bound_j;
              return la != lb ? la < lb : a < b;
            });
  std::vector<std::optional<StateRecord>> incumbent(num_targets);
  std::vector<std::vector<StateRecord>> fronts(frontier ? num_menus : 0);
  std::vector<StateRecord> running;  // front over every state solved so far
  const auto needed = [&](std::size_t i) {
    const auto& m = menus[i].bounds;
    for (std::size_t t = 0; t < num_targets; ++t) {
      if (m.min_amat_s > amat_targets_s[t]) continue;
      const auto& inc = incumbent[t];
      if (!inc || m.lower_bound_j < inc->energy_j ||
          (m.lower_bound_j == inc->energy_j && i < inc->menu)) {
        return true;
      }
    }
    return frontier && !front_excludes(running, m.min_amat_s, m.lower_bound_j);
  };
  // Target requests solve the lowest-bound menu alone first, unpruned; every
  // later menu's DP drops the keys that cannot beat the wave-start
  // incumbents.  A pruned scan counts only when it is exact for what it
  // reports: no step was thinned by the state cap, and it beats no
  // incumbent.  Otherwise the menu is solved again unpruned, and that scan
  // is its contribution, so every answer is the unpruned solve's.
  // Frontier requests keep every state and prune nothing.
  auto& registry = metrics::Registry::instance();
  static auto& menus_resolved = registry.counter("opt.menus_resolved");
  const bool prune = !frontier;
  std::size_t solved = 0;
  std::size_t states = 0;
  while (true) {
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](std::size_t i) { return !needed(i); }),
                  pending.end());
    if (pending.empty()) break;
    const std::size_t width =
        std::min(prune && solved == 0 ? 1 : kWaveWidth, pending.size());
    std::optional<EnergyCeiling> ceiling;
    if (prune && solved > 0) {
      std::vector<double> incumbent_j(num_targets,
                                      std::numeric_limits<double>::infinity());
      for (std::size_t t = 0; t < num_targets; ++t) {
        if (incumbent[t]) incumbent_j[t] = incumbent[t]->energy_j;
      }
      ceiling.emplace(amat_targets_s, incumbent_j);
    }
    auto scans = par::parallel_map(width, [&](std::size_t k) {
      const std::size_t i = pending[k];
      if (!ceiling) {
        return scan_menu(i, menus[i], amat_targets_s, frontier, mem);
      }
      auto scan = scan_menu(i, menus[i], amat_targets_s, frontier, mem,
                            &*ceiling);
      bool exact = !scan.thinned;
      for (std::size_t t = 0; exact && t < num_targets; ++t) {
        exact = !scan.best[t] || !beats(*scan.best[t], incumbent[t]);
      }
      if (exact) return scan;
      menus_resolved.add(1);
      const std::size_t pruned_states = scan.states;
      scan = scan_menu(i, menus[i], amat_targets_s, frontier, mem);
      scan.states += pruned_states;
      return scan;
    });
    for (std::size_t k = 0; k < width; ++k) {
      auto& scan = scans[k];
      states += scan.states;
      for (std::size_t t = 0; t < num_targets; ++t) {
        if (scan.best[t] && beats(*scan.best[t], incumbent[t])) {
          incumbent[t] = std::move(scan.best[t]);
        }
      }
      if (frontier) {
        running.insert(running.end(), scan.front.begin(), scan.front.end());
        fronts[pending[k]] = std::move(scan.front);
      }
    }
    if (frontier) running = pareto_records(std::move(running));
    pending.erase(pending.begin(), pending.begin() + width);
    solved += width;
  }
  static auto& menus_solved = registry.counter("opt.menus_solved");
  static auto& designs_considered =
      registry.counter("opt.designs_considered");
  menus_solved.add(solved);
  designs_considered.add(states);

  const auto design = [&](const StateRecord& r) {
    return materialize(menus[r.menu].options, r.state, mem, set.vth(r.menu),
                       set.tox(r.menu));
  };
  out.best.resize(num_targets);
  for (std::size_t t = 0; t < num_targets; ++t) {
    if (incumbent[t]) out.best[t] = design(*incumbent[t]);
  }

  if (frontier) {
    // Local fronts in menu order: the same input, minus states the skip
    // rule proved off the front, as a fold over every menu.
    std::vector<StateRecord> records;
    for (const auto& front : fronts) {
      records.insert(records.end(), front.begin(), front.end());
    }
    auto front = pareto_records(std::move(records));
    // thin_to keeps both ends, so it treats caps below 2 as "no cap"; a
    // one-point frontier is the fastest point alone.
    if (*frontier_max_points == 1 && !front.empty()) front.resize(1);
    thin_to(front, *frontier_max_points);
    out.frontier.reserve(front.size());
    for (const auto& r : front) out.frontier.push_back(design(r));
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

namespace detail {

std::vector<MenuBounds> menu_bounds(const energy::MemorySystemModel& system,
                                    const KnobGrid& grid,
                                    const MenuSpec& spec) {
  const auto set = bound_menus(system, grid, spec, memory_terms(system));
  std::vector<MenuBounds> out;
  out.reserve(set.menus.size());
  for (const auto& m : set.menus) out.push_back(m.bounds);
  return out;
}

std::vector<SysCombo> pareto_step(const std::vector<SysCombo>& states,
                                  const std::vector<ComponentOption>& options,
                                  std::size_t component) {
  NC_REQUIRE(component < kSystemComponents, "component index out of range");
  std::vector<SysCombo> front;
  ParetoStep().run(states, options, component, front);
  return front;
}

void visit_dp_steps(const energy::MemorySystemModel& system,
                    const KnobGrid& grid, const MenuSpec& spec,
                    const DpStepVisitor& visit) {
  const auto set = bound_menus(system, grid, spec, memory_terms(system));
  par::parallel_for(set.menus.size(), [&](std::size_t m) {
    run_menu_dp(set.menus[m], TupleMenuSolver::kStateCap, nullptr, &visit, m);
  });
}

std::vector<SystemDesignPoint> menu_states(
    const energy::MemorySystemModel& system, const KnobGrid& grid,
    const MenuSpec& spec, std::size_t menu) {
  const MemoryTerms mem = memory_terms(system);
  const auto set = bound_menus(system, grid, spec, mem);
  NC_REQUIRE(menu < set.menus.size(), "menu index out of range");
  const auto& m = set.menus[menu];
  std::vector<SystemDesignPoint> out;
  for (const auto& c : run_menu_dp(m, TupleMenuSolver::kStateCap).states) {
    out.push_back(materialize(m.options, c, mem, set.vth(menu), set.tox(menu)));
  }
  return out;
}

}  // namespace detail

}  // namespace nanocache::opt
