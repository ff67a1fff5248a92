// The (Tox, Vth) tuple problem (paper Section 5, Figure 2): given a process
// menu with at most `num_tox` distinct oxide thicknesses and `num_vth`
// distinct threshold voltages, assign a menu pair to each of the eight
// cache components (4 per level) of an L1+L2+memory system so total energy
// per access is minimized subject to an AMAT constraint.
//
// Solved exactly per menu by Pareto-filtered DP over
// (AMAT-weighted delay, leakage, weighted dynamic energy), each step a
// merge of per-option sorted runs; menus are enumerated exhaustively over
// grid subsets.  One enumeration answers every question about a spec
// (solve()): every menu is bounded from its option tables alone, and only
// the menus no bound rules out run their DP, in ascending-bound waves.
// For targets, a DP drops the states that provably cannot beat the
// incumbents, and is run again unpruned wherever that could change an
// answer (docs/MODELING.md §14).  Only the winning states are ever turned
// into SystemDesignPoints.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "energy/memory_system.h"
#include "opt/options.h"

namespace nanocache::opt {

/// Menu cardinality: the paper sweeps {1,2,3} x {1,2,3}.
struct MenuSpec {
  int num_tox = 2;
  int num_vth = 2;
};

/// One optimized system design.
struct SystemDesignPoint {
  double amat_s = 0.0;
  double energy_j = 0.0;        ///< total energy per access
  double leakage_w = 0.0;
  cachemodel::ComponentAssignment l1;
  cachemodel::ComponentAssignment l2;
  std::vector<double> tox_menu;
  std::vector<double> vth_menu;
};

/// Everything one enumeration of a spec's menus answers.
struct MenuSolution {
  /// Fastest achievable AMAT (feasibility bound).
  double min_amat_s = std::numeric_limits<double>::infinity();
  /// Minimum-energy design per AMAT target, in target order; nullopt where
  /// the target is infeasible.
  std::vector<std::optional<SystemDesignPoint>> best;
  /// Energy/AMAT frontier; empty unless solve() was asked for one.
  std::vector<SystemDesignPoint> frontier;
};

class TupleMenuSolver {
 public:
  /// DP state cap per combine step (documented approximation).
  static constexpr std::size_t kStateCap = 4096;

  /// `system` supplies the two cache models and the miss statistics;
  /// evaluators default to the structural models of each level.
  TupleMenuSolver(const energy::MemorySystemModel& system, KnobGrid grid);

  /// Enumerate the spec's menus once and answer from that single pass: the
  /// fastest AMAT, the minimum-energy design at each of `amat_targets_s`
  /// and, when `frontier_max_points` is set, the frontier thinned to that
  /// many points.  Each piece is bitwise what min_amat_s / best_at /
  /// frontier return on their own, and what a first-wins fold over every
  /// menu's DP states in enumeration order returns: menus and DP states a
  /// proven bound rules out are skipped, never approximated.
  MenuSolution solve(
      const MenuSpec& spec, const std::vector<double>& amat_targets_s,
      std::optional<std::size_t> frontier_max_points = std::nullopt) const;

  /// Energy/AMAT Pareto frontier achievable with menus of the given
  /// cardinality (best menu chosen per point), evenly thinned to at most
  /// `max_points` (0 keeps the whole front; 1 keeps the fastest point).
  std::vector<SystemDesignPoint> frontier(const MenuSpec& spec,
                                          std::size_t max_points = 96) const;

  /// Minimum-energy design meeting `amat_target_s`; nullopt if infeasible.
  std::optional<SystemDesignPoint> best_at(const MenuSpec& spec,
                                           double amat_target_s) const;

  /// Fastest achievable AMAT for the spec (feasibility bound).
  double min_amat_s(const MenuSpec& spec) const;

 private:
  const energy::MemorySystemModel& system_;
  KnobGrid grid_;
};

namespace detail {

/// L1 + L2 components: the DP's steps.
inline constexpr std::size_t kSystemComponents = 2 * cachemodel::kNumComponents;

/// One Pareto-DP state: the weighted sums over the components chosen so
/// far, and each chosen component's option index.
struct SysCombo {
  double wdelay_s = 0.0;   ///< AMAT-weighted delay sum
  double leakage_w = 0.0;
  double wdyn_j = 0.0;     ///< access-weighted dynamic energy
  std::array<std::uint16_t, kSystemComponents> choice{};
};

/// One DP step: every state of `states` extended by every option of
/// component `component`, filtered to the (wdelay, leakage, wdyn) Pareto
/// front.  Returns exactly what stable-sorting the |states|·|options|
/// extensions, generated state-major, by that key and sweeping them through
/// a (leakage, wdyn) staircase returns (docs/MODELING.md §14).
std::vector<SysCombo> pareto_step(const std::vector<SysCombo>& states,
                                  const std::vector<ComponentOption>& options,
                                  std::size_t component);

/// Called on each step of a menu's DP with the step's input states, the
/// component's option table and the front the step returns (before the
/// state cap thins it).
using DpStepVisitor = std::function<void(
    std::size_t menu, std::size_t component,
    const std::vector<SysCombo>& states,
    const std::vector<ComponentOption>& options,
    const std::vector<SysCombo>& front)>;

/// Run the DP of every menu of `spec`, skipped or not, calling `visit` on
/// each step.  Menus run concurrently on the pool, so `visit` must be safe
/// to call from several threads for different menus.
void visit_dp_steps(const energy::MemorySystemModel& system,
                    const KnobGrid& grid, const MenuSpec& spec,
                    const DpStepVisitor& visit);

/// What the bound pass knows about one menu before any DP runs.
struct MenuBounds {
  /// The fastest AMAT of any state the menu's DP keeps, exactly.
  double min_amat_s = 0.0;
  /// A lower bound on the energy of every state the menu's DP keeps.
  double lower_bound_j = 0.0;
};

/// Bounds of every menu of `spec`, in enumeration order (Tox-major: menu i
/// pairs Tox subset i / #Vth-subsets with Vth subset i % #Vth-subsets).
std::vector<MenuBounds> menu_bounds(const energy::MemorySystemModel& system,
                                    const KnobGrid& grid, const MenuSpec& spec);

/// Every state the Pareto-DP of menu `menu` (enumeration index) keeps,
/// materialized, in DP order.  solve() answers exactly what folding these
/// over all menus in enumeration order, first wins, answers.
std::vector<SystemDesignPoint> menu_states(
    const energy::MemorySystemModel& system, const KnobGrid& grid,
    const MenuSpec& spec, std::size_t menu);

}  // namespace detail

}  // namespace nanocache::opt
