// Tests for the (Tox, Vth) tuple-menu solver: feasibility, constraint
// satisfaction, monotonicity in menu cardinality, agreement with a
// brute-force assignment search on a tiny instance, the Figure 2
// orderings, that one solve() pass answers bitwise what the per-piece
// entry points answer at any thread count, that the per-menu bounds hold
// for every DP state, that skipping bounded-out menus answers bitwise
// what the full enumeration answers, and that every merged DP step returns
// what the sort-and-staircase oracle returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/explorer.h"
#include "energy/memory_system.h"
#include "opt/pareto.h"
#include "opt/tuple_menu.h"
#include "support/pareto_reference.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/units.h"

namespace nanocache::opt {
namespace {

using cachemodel::CacheModel;
using cachemodel::ComponentKind;
using cachemodel::kAllComponents;

struct SystemFixture {
  SystemFixture() {
    tech::DeviceModel dev(tech::bptm65());
    l1 = std::make_unique<CacheModel>(
        cachemodel::l1_organization(16 * 1024, dev),
        tech::DeviceModel(dev.params()));
    l2 = std::make_unique<CacheModel>(
        cachemodel::l2_organization(512 * 1024, dev),
        tech::DeviceModel(dev.params()));
    system = std::make_unique<energy::MemorySystemModel>(
        *l1, *l2, energy::MissRates{0.0318, 0.189},
        energy::MainMemoryParams{});
  }
  std::unique_ptr<CacheModel> l1;
  std::unique_ptr<CacheModel> l2;
  std::unique_ptr<energy::MemorySystemModel> system;
};

SystemFixture& fixture() {
  static SystemFixture f;
  return f;
}

TEST(TupleSolver, FrontierIsSortedAndNonDominated) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const auto front = solver.frontier({2, 2}, 64);
  ASSERT_GT(front.size(), 5u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].amat_s, front[i - 1].amat_s);
    EXPECT_LT(front[i].energy_j, front[i - 1].energy_j);
  }
}

TEST(TupleSolver, BestAtRespectsConstraint) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const double min_amat = solver.min_amat_s({2, 2});
  const auto r = solver.best_at({2, 2}, min_amat * 1.2);
  ASSERT_TRUE(r.has_value());
  EXPECT_LE(r->amat_s, min_amat * 1.2 * (1 + 1e-12));
  EXPECT_FALSE(solver.best_at({2, 2}, min_amat * 0.5).has_value());
  EXPECT_THROW(solver.best_at({2, 2}, -1.0), Error);
}

TEST(TupleSolver, DesignRespectsMenuCardinality) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const double t = solver.min_amat_s({2, 2}) * 1.25;
  const auto r = solver.best_at({2, 2}, t);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->tox_menu.size(), 2u);
  EXPECT_EQ(r->vth_menu.size(), 2u);
  // Every assigned knob pair must come from the menu.
  auto in_menu = [&](const tech::DeviceKnobs& k) {
    bool vth_ok = false;
    bool tox_ok = false;
    for (double v : r->vth_menu) vth_ok |= (v == k.vth_v);
    for (double t2 : r->tox_menu) tox_ok |= (t2 == k.tox_a);
    return vth_ok && tox_ok;
  };
  for (ComponentKind kind : kAllComponents) {
    EXPECT_TRUE(in_menu(r->l1.get(kind)));
    EXPECT_TRUE(in_menu(r->l2.get(kind)));
  }
}

TEST(TupleSolver, MoreMenuFreedomNeverHurts) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const double t = solver.min_amat_s({1, 1}) * 1.1;
  const auto e11 = solver.best_at({1, 1}, t);
  const auto e22 = solver.best_at({2, 2}, t);
  const auto e33 = solver.best_at({3, 3}, t);
  ASSERT_TRUE(e11 && e22 && e33);
  // Supersets of menus can only improve the optimum (DP is exact up to the
  // documented thinning; allow a hair of slack for it).
  EXPECT_LE(e22->energy_j, e11->energy_j * 1.02);
  EXPECT_LE(e33->energy_j, e22->energy_j * 1.02);
}

TEST(TupleSolver, EnergyMatchesSystemEvaluation) {
  // The DP's weighted sums must agree with the full MemorySystemModel
  // evaluation of the returned assignment (nominal coupling).
  const auto& f = fixture();
  const TupleMenuSolver solver(*f.system, KnobGrid::paper_default());
  const auto r = solver.best_at({2, 2}, solver.min_amat_s({2, 2}) * 1.3);
  ASSERT_TRUE(r.has_value());
  const auto m = f.system->evaluate(r->l1, r->l2);
  EXPECT_NEAR(m.amat_s, r->amat_s, r->amat_s * 1e-9);
  EXPECT_NEAR(m.total_energy_j, r->energy_j, r->energy_j * 1e-9);
  EXPECT_NEAR(m.leakage_w, r->leakage_w, r->leakage_w * 1e-9);
}

TEST(TupleSolver, MatchesBruteForceOnTinyInstance) {
  // 1 Tox x 2 Vth menu, fixed menu values: per-component choice is binary,
  // so the full 2^8 assignment space is enumerable.
  const auto& f = fixture();
  KnobGrid tiny;
  tiny.vth_values = {0.30, 0.45};
  tiny.tox_values = {12.0};
  const TupleMenuSolver solver(*f.system, tiny);
  const double target = solver.min_amat_s({1, 2}) * 1.15;
  const auto fast = solver.best_at({1, 2}, target);
  ASSERT_TRUE(fast.has_value());

  const auto pairs = menu_pairs({0.30, 0.45}, {12.0});
  double best_energy = 1e9;
  for (int mask = 0; mask < 256; ++mask) {
    cachemodel::ComponentAssignment a1;
    cachemodel::ComponentAssignment a2;
    for (int c = 0; c < 4; ++c) {
      a1.set(static_cast<ComponentKind>(c), pairs[(mask >> c) & 1]);
      a2.set(static_cast<ComponentKind>(c), pairs[(mask >> (4 + c)) & 1]);
    }
    const auto m = f.system->evaluate(a1, a2);
    if (m.amat_s <= target && m.total_energy_j < best_energy) {
      best_energy = m.total_energy_j;
    }
  }
  EXPECT_NEAR(fast->energy_j, best_energy, best_energy * 1e-6);
}

TEST(TupleSolver, Figure2HeadlineOrderings) {
  // The claims the paper draws from Figure 2, evaluated at a mid target.
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const double t = solver.min_amat_s({3, 3}) * 1.45;
  const auto e22 = solver.best_at({2, 2}, t);
  const auto e23 = solver.best_at({2, 3}, t);
  const auto e12 = solver.best_at({1, 2}, t);
  const auto e21 = solver.best_at({2, 1}, t);
  ASSERT_TRUE(e22 && e23 && e12 && e21);
  // 2 Tox + 3 Vth at least as good as 2+2; 2+2 within a few percent.
  EXPECT_LE(e23->energy_j, e22->energy_j * 1.02);
  EXPECT_LE(e22->energy_j, e23->energy_j * 1.06);
  // Vth is the stronger knob: 1 Tox + 2 Vth beats 2 Tox + 1 Vth here.
  EXPECT_LT(e12->energy_j, e21->energy_j);
}

/// Field-by-field bitwise equality of two designs.
void expect_same_design(const SystemDesignPoint& a,
                        const SystemDesignPoint& b) {
  EXPECT_EQ(a.amat_s, b.amat_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.leakage_w, b.leakage_w);
  EXPECT_EQ(a.tox_menu, b.tox_menu);
  EXPECT_EQ(a.vth_menu, b.vth_menu);
  for (ComponentKind kind : kAllComponents) {
    EXPECT_EQ(a.l1.get(kind).vth_v, b.l1.get(kind).vth_v);
    EXPECT_EQ(a.l1.get(kind).tox_a, b.l1.get(kind).tox_a);
    EXPECT_EQ(a.l2.get(kind).vth_v, b.l2.get(kind).vth_v);
    EXPECT_EQ(a.l2.get(kind).tox_a, b.l2.get(kind).tox_a);
  }
}

void expect_same_designs(const std::optional<SystemDesignPoint>& a,
                         const std::optional<SystemDesignPoint>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) expect_same_design(*a, *b);
}

void expect_same_designs(const std::vector<SystemDesignPoint>& a,
                         const std::vector<SystemDesignPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_design(a[i], b[i]);
}

TEST(TupleSolver, SolveMatchesPerPieceEntryPointsBitwise) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const MenuSpec spec{2, 2};
  std::optional<MenuSolution> serial;
  for (int threads : {1, 8}) {
    par::set_default_threads(threads);
    const double min_amat = solver.min_amat_s(spec);
    // An infeasible rung, one exactly at the fastest AMAT, two loose ones.
    const std::vector<double> targets{min_amat * 0.9, min_amat,
                                      min_amat * 1.2, min_amat * 1.5};
    const auto solution = solver.solve(spec, targets, 24);
    EXPECT_EQ(solution.min_amat_s, min_amat);
    ASSERT_EQ(solution.best.size(), targets.size());
    EXPECT_FALSE(solution.best[0].has_value());
    EXPECT_TRUE(solution.best[1].has_value());
    for (std::size_t t = 0; t < targets.size(); ++t) {
      expect_same_designs(solution.best[t], solver.best_at(spec, targets[t]));
    }
    expect_same_designs(solution.frontier, solver.frontier(spec, 24));
    // A solve without a frontier leaves it empty and changes nothing else.
    const auto no_front = solver.solve(spec, targets);
    EXPECT_TRUE(no_front.frontier.empty());
    EXPECT_EQ(no_front.min_amat_s, min_amat);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      expect_same_designs(no_front.best[t], solution.best[t]);
    }
    if (!serial) {
      serial = solution;
      continue;
    }
    EXPECT_EQ(solution.min_amat_s, serial->min_amat_s);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      expect_same_designs(solution.best[t], serial->best[t]);
    }
    expect_same_designs(solution.frontier, serial->frontier);
  }
  par::set_default_threads(0);
}

/// The paper's nine Figure 2 menu cardinalities.
std::vector<MenuSpec> nine_specs() {
  std::vector<MenuSpec> specs;
  for (int tox = 1; tox <= 3; ++tox) {
    for (int vth = 1; vth <= 3; ++vth) specs.push_back({tox, vth});
  }
  return specs;
}

TEST(TupleSolver, MenuBoundsHoldForEveryDpState) {
  const core::Explorer explorer;
  const auto system = explorer.default_system();
  const auto& grid = explorer.config().grid;
  par::set_default_threads(4);
  for (const auto& spec : nine_specs()) {
    const auto bounds = detail::menu_bounds(system, grid, spec);
    // One task per menu; each reports how many of its states break a bound.
    const auto violations = par::parallel_map(bounds.size(), [&](std::size_t m) {
      const auto states = detail::menu_states(system, grid, spec, m);
      double min_amat = std::numeric_limits<double>::infinity();
      std::size_t below = 0;
      for (const auto& s : states) {
        min_amat = std::min(min_amat, s.amat_s);
        if (s.energy_j < bounds[m].lower_bound_j) ++below;
      }
      return below + (min_amat == bounds[m].min_amat_s ? 0 : 1);
    });
    for (std::size_t m = 0; m < bounds.size(); ++m) {
      EXPECT_EQ(violations[m], 0u)
          << spec.num_tox << "x" << spec.num_vth << " menu " << m;
    }
  }
  par::set_default_threads(0);
}

/// One DP state of the full enumeration, by position.
struct StateRef {
  double amat_s = 0.0;
  double energy_j = 0.0;
  std::size_t menu = 0;
  std::size_t state = 0;
};

/// What folding every menu's DP states in enumeration order answers, first
/// wins: the reference solve() must match bitwise.
struct FullEnumeration {
  double min_amat_s = std::numeric_limits<double>::infinity();
  std::vector<std::optional<SystemDesignPoint>> best;
  std::vector<StateRef> states;  ///< every state, menu by menu
};

FullEnumeration full_enumeration(const energy::MemorySystemModel& system,
                                 const KnobGrid& grid, const MenuSpec& spec,
                                 const std::vector<double>& targets) {
  const std::size_t num_menus = detail::menu_bounds(system, grid, spec).size();
  auto menus = par::parallel_map(num_menus, [&](std::size_t m) {
    const auto states = detail::menu_states(system, grid, spec, m);
    FullEnumeration fold;
    fold.best.resize(targets.size());
    for (std::size_t i = 0; i < states.size(); ++i) {
      const auto& s = states[i];
      fold.min_amat_s = std::min(fold.min_amat_s, s.amat_s);
      for (std::size_t t = 0; t < targets.size(); ++t) {
        auto& best = fold.best[t];
        if (s.amat_s <= targets[t] && (!best || s.energy_j < best->energy_j)) {
          best = s;
        }
      }
      fold.states.push_back({s.amat_s, s.energy_j, m, i});
    }
    return fold;
  });
  FullEnumeration out;
  out.best.resize(targets.size());
  for (auto& fold : menus) {
    out.min_amat_s = std::min(out.min_amat_s, fold.min_amat_s);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      auto& b = fold.best[t];
      if (b && (!out.best[t] || b->energy_j < out.best[t]->energy_j)) {
        out.best[t] = std::move(b);
      }
    }
    out.states.insert(out.states.end(), fold.states.begin(),
                      fold.states.end());
  }
  return out;
}

/// The full enumeration's frontier thinned to `max_points`, materialized.
std::vector<SystemDesignPoint> full_frontier(
    const energy::MemorySystemModel& system, const KnobGrid& grid,
    const MenuSpec& spec, const FullEnumeration& full,
    std::size_t max_points) {
  auto front = pareto_min2(
      full.states, [](const StateRef& r) { return r.amat_s; },
      [](const StateRef& r) { return r.energy_j; });
  if (max_points == 1 && !front.empty()) front.resize(1);
  thin_to(front, max_points);
  std::map<std::size_t, std::vector<SystemDesignPoint>> menus;
  std::vector<SystemDesignPoint> out;
  for (const auto& r : front) {
    auto it = menus.find(r.menu);
    if (it == menus.end()) {
      it = menus
               .emplace(r.menu,
                        detail::menu_states(system, grid, spec, r.menu))
               .first;
    }
    out.push_back(it->second[r.state]);
  }
  return out;
}

TEST(TupleSolver, BoundSkipMatchesFullEnumeration) {
  const core::Explorer explorer;
  const auto system = explorer.default_system();
  const auto& grid = explorer.config().grid;
  const TupleMenuSolver solver(system, grid);
  // The fastest AMAT exactly, an infeasible target, loose ones across the
  // Figure 2 range, and a repeat.
  std::vector<double> targets;
  for (const double ps : {1214.9003861611473, 1000.0, 1300.0, 1522.5, 1700.0,
                          2393.2, 2832.4, 1700.0}) {
    targets.push_back(units::ps_to_seconds(ps));
  }
  for (const auto& spec : nine_specs()) {
    SCOPED_TRACE(testing::Message()
                 << spec.num_tox << "x" << spec.num_vth);
    par::set_default_threads(4);
    const auto full = full_enumeration(system, grid, spec, targets);
    EXPECT_EQ(full.min_amat_s, targets[0]);
    EXPECT_FALSE(full.best[1].has_value());
    const std::map<std::size_t, std::vector<SystemDesignPoint>> fronts{
        {16, full_frontier(system, grid, spec, full, 16)},
        {0, full_frontier(system, grid, spec, full, 0)}};
    for (const int threads : {1, 4}) {
      par::set_default_threads(threads);
      for (const std::optional<std::size_t> points :
           {std::optional<std::size_t>(), std::optional<std::size_t>(16),
            std::optional<std::size_t>(0)}) {
        const auto solution = solver.solve(spec, targets, points);
        EXPECT_EQ(solution.min_amat_s, full.min_amat_s);
        ASSERT_EQ(solution.best.size(), targets.size());
        for (std::size_t t = 0; t < targets.size(); ++t) {
          expect_same_designs(solution.best[t], full.best[t]);
        }
        if (points) {
          expect_same_designs(solution.frontier, fronts.at(*points));
          // Alone, the frontier's own skip rule decides which menus run.
          expect_same_designs(solver.frontier(spec, *points),
                              fronts.at(*points));
        } else {
          EXPECT_TRUE(solution.frontier.empty());
        }
      }
    }
  }
  par::set_default_threads(0);
}

using detail::SysCombo;

/// The oracle for one DP step: every state extended by every option,
/// state-major, through the stable sort and the staircase.
std::vector<SysCombo> oracle_step(const std::vector<SysCombo>& states,
                                  const std::vector<ComponentOption>& options,
                                  std::size_t component) {
  std::vector<SysCombo> all;
  all.reserve(states.size() * options.size());
  for (const auto& c : states) {
    for (std::size_t o = 0; o < options.size(); ++o) {
      SysCombo n = c;
      n.wdelay_s += options[o].delay_s;
      n.leakage_w += options[o].leakage_w;
      n.wdyn_j += options[o].dynamic_j;
      n.choice[component] = static_cast<std::uint16_t>(o);
      all.push_back(n);
    }
  }
  return reference::pareto_min3(
      std::move(all), [](const SysCombo& c) { return c.wdelay_s; },
      [](const SysCombo& c) { return c.leakage_w; },
      [](const SysCombo& c) { return c.wdyn_j; });
}

/// Same states in the same order, bit for bit.
bool same_states(const std::vector<SysCombo>& a,
                 const std::vector<SysCombo>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].wdelay_s != b[i].wdelay_s || a[i].leakage_w != b[i].leakage_w ||
        a[i].wdyn_j != b[i].wdyn_j || a[i].choice != b[i].choice) {
      return false;
    }
  }
  return true;
}

TEST(TupleSolver, DpStepsMatchSortAndStaircaseOracle) {
  const core::Explorer explorer;
  const auto system = explorer.default_system();
  const auto& grid = explorer.config().grid;
  par::set_default_threads(4);
  for (const auto& spec : nine_specs()) {
    const std::size_t num_menus =
        detail::menu_bounds(system, grid, spec).size();
    // Each menu's steps run on one thread, so per-menu slots need no lock.
    std::vector<std::size_t> steps(num_menus, 0);
    std::vector<std::size_t> mismatches(num_menus, 0);
    detail::visit_dp_steps(
        system, grid, spec,
        [&](std::size_t menu, std::size_t component,
            const std::vector<SysCombo>& states,
            const std::vector<ComponentOption>& options,
            const std::vector<SysCombo>& front) {
          ++steps[menu];
          if (!same_states(front, oracle_step(states, options, component))) {
            ++mismatches[menu];
          }
        });
    for (std::size_t m = 0; m < num_menus; ++m) {
      EXPECT_EQ(steps[m], detail::kSystemComponents)
          << spec.num_tox << "x" << spec.num_vth << " menu " << m;
      EXPECT_EQ(mismatches[m], 0u)
          << spec.num_tox << "x" << spec.num_vth << " menu " << m;
    }
  }
  par::set_default_threads(0);
}

ComponentOption option(double delay_s, double leakage_w, double dynamic_j) {
  ComponentOption o;
  o.delay_s = delay_s;
  o.leakage_w = leakage_w;
  o.dynamic_j = dynamic_j;
  return o;
}

TEST(ParetoStep, RoundingTieReversesARunAndTheStepStillMatchesTheOracle) {
  // a precedes b by half an ulp of their sum with the option's delay, so
  // both sums round to the same wdelay and leakage puts b's first.
  SysCombo a;
  a.wdelay_s = 1.0;
  a.leakage_w = 2.0;
  a.wdyn_j = 1.0;
  SysCombo b = a;
  b.wdelay_s = std::nextafter(1.0, 2.0);
  b.leakage_w = 1.0;
  const std::vector<SysCombo> states{a, b};
  const std::vector<ComponentOption> options{option(1.0, 0.0, 0.0)};
  ASSERT_LT(a.wdelay_s, b.wdelay_s);
  ASSERT_EQ(a.wdelay_s + options[0].delay_s, b.wdelay_s + options[0].delay_s);

  const auto front = detail::pareto_step(states, options, 3);
  // b's extension comes first and dominates a's.
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].leakage_w, 1.0);
  EXPECT_TRUE(same_states(front, oracle_step(states, options, 3)));
}

TEST(ParetoStep, MatchesOracleOnCoarseRandomClouds) {
  // Values on a coarse lattice, so keys tie often across states and
  // options; odd trials feed states in key order as the DP does, even
  // trials in random order.
  Rng rng(21);
  const auto coarse = [&rng] {
    return static_cast<double>(rng.below(6)) * 0.25;
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<SysCombo> states(1 + rng.below(40));
    for (auto& c : states) {
      c.wdelay_s = coarse();
      c.leakage_w = coarse();
      c.wdyn_j = coarse();
      c.choice[0] = static_cast<std::uint16_t>(rng.below(9));
    }
    if (trial % 2 == 1) {
      std::stable_sort(states.begin(), states.end(),
                       [](const SysCombo& x, const SysCombo& y) {
                         if (x.wdelay_s != y.wdelay_s) {
                           return x.wdelay_s < y.wdelay_s;
                         }
                         if (x.leakage_w != y.leakage_w) {
                           return x.leakage_w < y.leakage_w;
                         }
                         return x.wdyn_j < y.wdyn_j;
                       });
    }
    std::vector<ComponentOption> options(1 + rng.below(12));
    for (auto& o : options) o = option(coarse(), coarse(), coarse());
    EXPECT_TRUE(same_states(detail::pareto_step(states, options, 1),
                            oracle_step(states, options, 1)))
        << "trial " << trial;
  }
}

TEST(TupleSolver, FrontierCapOfOneKeepsOnlyTheFastestPoint) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const auto whole = solver.frontier({1, 2}, 0);  // 0: no cap
  ASSERT_GT(whole.size(), 2u);
  const auto one = solver.frontier({1, 2}, 1);
  ASSERT_EQ(one.size(), 1u);
  expect_same_design(one.front(), whole.front());
  // Caps from 2 up keep both ends, as before.
  const auto two = solver.frontier({1, 2}, 2);
  ASSERT_EQ(two.size(), 2u);
  expect_same_design(two.front(), whole.front());
  expect_same_design(two.back(), whole.back());
}

TEST(TupleSolver, RejectsBadSpecs) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  EXPECT_THROW(solver.best_at({0, 2}, 2e-9), Error);
  EXPECT_THROW(solver.best_at({2, 9}, 2e-9), Error);  // exceeds grid size
}

}  // namespace
}  // namespace nanocache::opt
