// The (Tox, Vth) tuple problem (paper Section 5, Figure 2): given a process
// menu with at most `num_tox` distinct oxide thicknesses and `num_vth`
// distinct threshold voltages, assign a menu pair to each of the eight
// cache components (4 per level) of an L1+L2+memory system so total energy
// per access is minimized subject to an AMAT constraint.
//
// Solved exactly per menu by Pareto-filtered DP over
// (AMAT-weighted delay, leakage, weighted dynamic energy); menus are
// enumerated exhaustively over grid subsets.  One enumeration answers
// every question about a spec (solve()): each menu scans its DP states
// and only the winning states are ever turned into SystemDesignPoints.
#pragma once

#include <cstddef>
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
  /// `system` supplies the two cache models and the miss statistics;
  /// evaluators default to the structural models of each level.
  TupleMenuSolver(const energy::MemorySystemModel& system, KnobGrid grid);

  /// Enumerate the spec's menus once and answer from that single pass: the
  /// fastest AMAT, the minimum-energy design at each of `amat_targets_s`
  /// and, when `frontier_max_points` is set, the frontier thinned to that
  /// many points.  Each piece is bitwise what min_amat_s / best_at /
  /// frontier return on their own.
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
  /// DP state cap per combine step (documented approximation knob).
  std::size_t state_cap_ = 4096;
};

}  // namespace nanocache::opt
