#include "opt/schemes.h"

#include <algorithm>
#include <limits>

#include "opt/engine.h"
#include "opt/pareto.h"
#include "opt/pruned.h"
#include "util/error.h"
#include "util/metrics.h"

namespace nanocache::opt {

using cachemodel::ComponentAssignment;
using detail::Combo;

std::string scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kPerComponent:
      return "I (per-component)";
    case Scheme::kArrayPeriphery:
      return "II (array/periphery)";
    case Scheme::kUniform:
      return "III (uniform)";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Building blocks shared with the pruned engine (opt/engine.h).
// ---------------------------------------------------------------------------

namespace detail {

std::vector<Combo> merge_component(const std::vector<Combo>& partial,
                                   const std::vector<ComponentOption>& options,
                                   std::size_t component_index) {
  std::vector<Combo> next;
  next.reserve(partial.size() * options.size());
  for (const auto& p : partial) {
    for (std::size_t oi = 0; oi < options.size(); ++oi) {
      Combo c = p;
      c.delay_s += options[oi].delay_s;
      c.leakage_w += options[oi].leakage_w;
      c.choice[component_index] = static_cast<std::uint16_t>(oi);
      next.push_back(c);
    }
  }
  count_combos_evaluated(next.size());
  // A dominated partial state can never become optimal because both
  // objectives add monotonically.
  return pareto_min2(
      std::move(next), [](const Combo& c) { return c.delay_s; },
      [](const Combo& c) { return c.leakage_w; });
}

SchemeResult combo_result(
    const OptSpace& space,
    const std::vector<std::vector<ComponentOption>>& tables,
    const Combo& combo) {
  SchemeResult r;
  r.leakage_w = combo.leakage_w;
  r.access_time_s = combo.delay_s;
  for (std::size_t i = 0; i < space.components.size(); ++i) {
    const ComponentOption& option = tables[i][combo.choice[i]];
    r.dynamic_energy_j += option.dynamic_j;
    apply_option(r.assignment, space.components[i], option);
  }
  return r;
}

BlockTables block_tables(const ComponentEvaluator& eval, const OptSpace& space,
                         Scheme scheme,
                         const std::vector<tech::DeviceKnobs>& pairs) {
  switch (scheme) {
    case Scheme::kArrayPeriphery:
      return {space_block_options(eval, space, /*array_block=*/true, pairs),
              space_block_options(eval, space, /*array_block=*/false, pairs)};
    case Scheme::kUniform:
      return {space_uniform_options(eval, space, pairs), {ComponentOption{}}};
    case Scheme::kPerComponent:
      break;
  }
  throw Error("scheme " + scheme_name(scheme) + " has no block structure");
}

void apply_option(ComponentAssignment& assignment,
                  cachemodel::ComponentKind kind,
                  const ComponentOption& option) {
  assignment.set(kind, option.knobs);
  assignment.set_gated(kind, option.gated);
}

SchemeResult block_result(const OptSpace& space, Scheme scheme,
                          const ComponentOption& array,
                          const ComponentOption& periphery) {
  const bool uniform = scheme == Scheme::kUniform;
  SchemeResult r;
  // Components outside the space (the tag path of a fixed organization)
  // still follow the paper's block convention.
  r.assignment = uniform
                     ? ComponentAssignment(array.knobs)
                     : ComponentAssignment::split(array.knobs, periphery.knobs);
  for (std::size_t i = 0; i < space.components.size(); ++i) {
    apply_option(r.assignment, space.components[i],
                 uniform || i < space.array_count ? array : periphery);
  }
  r.leakage_w = array.leakage_w + periphery.leakage_w;
  r.access_time_s = array.delay_s + periphery.delay_s;
  r.dynamic_energy_j = array.dynamic_j + periphery.dynamic_j;
  return r;
}

OptOutcome<SchemeResult> infeasible_delay(double delay_constraint_s,
                                          double fastest_s, Scheme scheme) {
  return OptOutcome<SchemeResult>::infeasible(InfeasibleInfo{
      "access time <= delay constraint [s]", delay_constraint_s, fastest_s,
      "scheme " + scheme_name(scheme)});
}

void count_combos_evaluated(std::size_t n) {
  static auto& evaluated =
      metrics::Registry::instance().counter("opt.combos_evaluated");
  evaluated.add(n);
}

void count_combos_skipped(std::size_t n) {
  static auto& skipped =
      metrics::Registry::instance().counter("opt.combos_skipped");
  skipped.add(n);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// The exhaustive engine: the differential-testing reference.
// ---------------------------------------------------------------------------

namespace {

/// Candidate-space observability: every (assignment, scheme) combination a
/// single-cache optimization considers, across all three schemes.
void count_combos(std::size_t n) {
  static auto& combos =
      metrics::Registry::instance().counter("opt.combos_considered");
  combos.add(n);
}

/// Argmin order for feasible candidates: lowest leakage, then lowest
/// delay, then lowest grid index (the per-component option-index tuple,
/// compared lexicographically).  A total order, so the winner does not
/// depend on the order the candidates are scanned in.
bool better_combo(const Combo& a, const Combo& b) {
  if (a.leakage_w != b.leakage_w) return a.leakage_w < b.leakage_w;
  if (a.delay_s != b.delay_s) return a.delay_s < b.delay_s;
  return a.choice < b.choice;
}

/// Scheme I's Pareto DP over a space's component tables, in space order.
std::vector<Combo> pareto_dp(
    const std::vector<std::vector<ComponentOption>>& tables) {
  std::vector<Combo> combos{Combo{}};
  for (std::size_t i = 0; i < tables.size(); ++i) {
    combos = detail::merge_component(combos, tables[i], i);
  }
  return combos;
}

OptOutcome<SchemeResult> scheme1_exhaustive(
    const ComponentEvaluator& eval, const std::vector<tech::DeviceKnobs>& pairs,
    double delay_constraint_s, const OptSpace& space) {
  const auto tables = space_component_tables(eval, space, pairs);
  const auto combos = pareto_dp(tables);
  count_combos(combos.size());

  const Combo* best = nullptr;
  double fastest = std::numeric_limits<double>::infinity();
  for (const Combo& c : combos) {
    fastest = std::min(fastest, c.delay_s);
    if (c.delay_s > delay_constraint_s) continue;
    if (best == nullptr || better_combo(c, *best)) best = &c;
  }
  if (best == nullptr) {
    return detail::infeasible_delay(delay_constraint_s, fastest,
                                    Scheme::kPerComponent);
  }
  return detail::combo_result(space, tables, *best);
}

OptOutcome<SchemeResult> blocks_exhaustive(
    const ComponentEvaluator& eval, const std::vector<tech::DeviceKnobs>& pairs,
    Scheme scheme, double delay_constraint_s, const OptSpace& space) {
  const auto blocks = detail::block_tables(eval, space, scheme, pairs);
  const std::size_t np = blocks.periphery.size();
  const std::size_t n = blocks.array.size() * np;
  count_combos(n);
  detail::count_combos_evaluated(n);
  // Flat block-pair scan in grid order; the argmin is by (leakage, delay,
  // flattened grid index), the block analogue of better_combo.
  std::size_t best = n;
  double best_leak = 0.0;
  double best_delay = 0.0;
  double fastest = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = blocks.array[i / np];
    const auto& p = blocks.periphery[i % np];
    const double delay = a.delay_s + p.delay_s;
    fastest = std::min(fastest, delay);
    if (delay > delay_constraint_s) continue;
    const double leak = a.leakage_w + p.leakage_w;
    if (best == n || leak < best_leak ||
        (leak == best_leak && delay < best_delay)) {
      best = i;
      best_leak = leak;
      best_delay = delay;
    }
  }
  if (best == n) {
    return detail::infeasible_delay(delay_constraint_s, fastest, scheme);
  }
  return detail::block_result(space, scheme, blocks.array[best / np],
                              blocks.periphery[best % np]);
}

}  // namespace

OptOutcome<SchemeResult> optimize_single_cache(
    const ComponentEvaluator& eval, const KnobGrid& grid, Scheme scheme,
    double delay_constraint_s, SearchMode mode, const OptSpace& space) {
  static auto& optimize_calls =
      metrics::Registry::instance().counter("opt.optimize_calls");
  optimize_calls.add(1);
  NC_REQUIRE(delay_constraint_s > 0.0, "delay constraint must be positive");
  if (mode == SearchMode::kPruned) {
    return optimize_single_cache_pruned(eval, grid, scheme,
                                        delay_constraint_s, space);
  }
  const auto pairs = grid.pairs();
  if (scheme == Scheme::kPerComponent) {
    return scheme1_exhaustive(eval, pairs, delay_constraint_s, space);
  }
  return blocks_exhaustive(eval, pairs, scheme, delay_constraint_s, space);
}

double min_access_time(const ComponentEvaluator& eval, const KnobGrid& grid,
                       Scheme scheme, const OptSpace& space) {
  const auto pairs = grid.pairs();
  const auto fastest = [](const std::vector<ComponentOption>& table) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& o : table) best = std::min(best, o.delay_s);
    return best;
  };
  if (scheme == Scheme::kPerComponent) {
    // Independent per-component minima sum to the overall minimum.
    double total = 0.0;
    for (const auto& table : space_component_tables(eval, space, pairs)) {
      total += fastest(table);
    }
    return total;
  }
  const auto blocks = detail::block_tables(eval, space, scheme, pairs);
  return fastest(blocks.array) + fastest(blocks.periphery);
}

std::vector<SchemeResult> scheme_frontier(const ComponentEvaluator& eval,
                                          const KnobGrid& grid, Scheme scheme,
                                          const OptSpace& space) {
  const auto pairs = grid.pairs();
  std::vector<SchemeResult> all;
  if (scheme == Scheme::kPerComponent) {
    const auto tables = space_component_tables(eval, space, pairs);
    for (const auto& c : pareto_dp(tables)) {
      all.push_back(detail::combo_result(space, tables, c));
    }
  } else {
    const auto blocks = detail::block_tables(eval, space, scheme, pairs);
    all.reserve(blocks.array.size() * blocks.periphery.size());
    for (const auto& a : blocks.array) {
      for (const auto& p : blocks.periphery) {
        all.push_back(detail::block_result(space, scheme, a, p));
      }
    }
  }
  return pareto_min2(
      std::move(all), [](const SchemeResult& r) { return r.access_time_s; },
      [](const SchemeResult& r) { return r.leakage_w; });
}

}  // namespace nanocache::opt
