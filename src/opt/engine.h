// Building blocks shared by the two single-cache search engines: the
// exhaustive reference (schemes.cc) and the dominance-pruned default
// (pruned.cc).  Both engines build their tables, fold their sums, and write
// their results through these functions, so every floating-point value they
// compare is formed identically (docs/MODELING.md §10).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "opt/options.h"
#include "opt/outcome.h"
#include "opt/schemes.h"

namespace nanocache::opt::detail {

/// Partial Scheme I state over a prefix of a space's components: the
/// accumulated delay and leakage plus the option index chosen for each
/// component combined so far.  Dynamic energy is not searched on, so it is
/// folded once for the winner (combo_result) instead of per state.
struct Combo {
  double delay_s = 0.0;
  double leakage_w = 0.0;
  std::array<std::uint16_t, cachemodel::kMaxComponents> choice{};
};

/// One step of the Pareto DP: extend every partial state by every option of
/// component `component_index` (left-fold sums), then keep the (delay,
/// leakage) staircase.  Stable and first-wins, so the result is a pure
/// function of the input order.
std::vector<Combo> merge_component(const std::vector<Combo>& partial,
                                   const std::vector<ComponentOption>& options,
                                   std::size_t component_index);

/// The two knob blocks Schemes II and III choose from.  Scheme II: the
/// space's array block and periphery block.  Scheme III: the whole cache as
/// the array block and an empty periphery block, represented by its single
/// all-zero option so that every sum `a + 0.0` is exactly `a`.
struct BlockTables {
  std::vector<ComponentOption> array;
  std::vector<ComponentOption> periphery;
};
BlockTables block_tables(const ComponentEvaluator& eval, const OptSpace& space,
                         Scheme scheme,
                         const std::vector<tech::DeviceKnobs>& pairs);

/// Set one component's knobs and gating state.
void apply_option(cachemodel::ComponentAssignment& assignment,
                  cachemodel::ComponentKind kind, const ComponentOption& option);

/// The Scheme I result of a full state over `tables`.  Its dynamic energy
/// is the left fold, in component order, the DP uses for delay and leakage.
SchemeResult combo_result(
    const OptSpace& space,
    const std::vector<std::vector<ComponentOption>>& tables,
    const Combo& combo);

/// The Scheme II/III result of one (array, periphery) block pair.
SchemeResult block_result(const OptSpace& space, Scheme scheme,
                          const ComponentOption& array,
                          const ComponentOption& periphery);

/// The infeasibility diagnosis both engines return (same bytes).
OptOutcome<SchemeResult> infeasible_delay(double delay_constraint_s,
                                          double fastest_s, Scheme scheme);

/// Search-effort counters.  `evaluated` counts candidate states actually
/// materialized (products formed and compared); `skipped` counts the states
/// a nested product loop over the unpruned option tables would have formed
/// for the same partial sets but the pruned engine never touched.
void count_combos_evaluated(std::size_t n);
void count_combos_skipped(std::size_t n);

}  // namespace nanocache::opt::detail
