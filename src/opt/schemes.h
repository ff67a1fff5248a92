// Single-cache leakage optimization (paper Section 4): minimize total
// leakage subject to an access-time constraint, under the three Vth/Tox
// assignment schemes.  All three are solved exactly over the discrete grid
// (Scheme I via Pareto-filtered dynamic programming, which is exhaustive-
// equivalent for monotone objectives).
#pragma once

#include <string>

#include "opt/options.h"
#include "opt/outcome.h"
#include "opt/search_mode.h"

namespace nanocache::opt {

/// The paper's three assignment schemes.
enum class Scheme {
  kPerComponent,    ///< Scheme I: independent pair per component
  kArrayPeriphery,  ///< Scheme II: array pair + shared periphery pair
  kUniform,         ///< Scheme III: one pair for the whole cache
};

std::string scheme_name(Scheme scheme);

struct SchemeResult {
  cachemodel::ComponentAssignment assignment;
  double leakage_w = 0.0;
  double access_time_s = 0.0;
  double dynamic_energy_j = 0.0;
};

/// Minimize leakage subject to access_time <= delay_constraint_s.
/// When no grid assignment meets the constraint the outcome is infeasible
/// and carries the violated constraint plus the fastest achievable time.
/// Both search modes return byte-identical results (opt/pruned.h); the
/// exhaustive mode is the differential-testing oracle.
///
/// `space` selects the component structure (and the power-gating axis);
/// the default is the paper's fixed four-component space.
OptOutcome<SchemeResult> optimize_single_cache(
    const ComponentEvaluator& eval, const KnobGrid& grid, Scheme scheme,
    double delay_constraint_s, SearchMode mode = SearchMode::kPruned,
    const OptSpace& space = OptSpace::base());

/// Fastest achievable access time under a scheme (the feasibility bound).
double min_access_time(const ComponentEvaluator& eval, const KnobGrid& grid,
                       Scheme scheme, const OptSpace& space = OptSpace::base());

/// The full (access time, leakage) Pareto front of a cache under a scheme:
/// every non-dominated assignment on the grid, sorted by access time
/// ascending / leakage descending.  This is the per-level primitive joint
/// multi-level studies combine.
std::vector<SchemeResult> scheme_frontier(
    const ComponentEvaluator& eval, const KnobGrid& grid, Scheme scheme,
    const OptSpace& space = OptSpace::base());

}  // namespace nanocache::opt
