#include "opt/pruned.h"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "opt/engine.h"
#include "opt/pareto.h"

namespace nanocache::opt {

using detail::Combo;

namespace {

using Tables = std::vector<std::vector<ComponentOption>>;

/// (delay, leakage) frontier of one option table.  pareto_min2 is stable
/// and first-wins, so among exactly-equal points the lowest grid index
/// survives — the identical representative the exhaustive DP keeps.  The
/// result is a strict staircase: delay strictly increasing, leakage
/// strictly decreasing.
std::vector<ComponentOption> option_frontier(std::vector<ComponentOption> v) {
  return pareto_min2(
      std::move(v), [](const ComponentOption& o) { return o.delay_s; },
      [](const ComponentOption& o) { return o.leakage_w; });
}

// ---------------------------------------------------------------------------
// Scheme I: per-component assignment via frontier-merge + branch-and-bound.
// ---------------------------------------------------------------------------

/// Minimum completion delay of a partial state, accumulated in the same
/// left-to-right order the DP adds components.  Floating-point addition is
/// weakly monotone, so this equals — bitwise — the delay of the cheapest
/// full assignment extending the state.
double completion_delay(double delay_s, const Tables& pruned,
                        std::size_t next_component) {
  for (std::size_t j = next_component; j < pruned.size(); ++j) {
    delay_s += pruned[j][0].delay_s;  // frontier head = per-component min
  }
  return delay_s;
}

/// Minimum completion leakage, same left-fold association.  The frontier
/// is a staircase, so its last entry carries the component's minimum
/// leakage.
double completion_leakage(double leakage_w, const Tables& pruned,
                          std::size_t next_component) {
  for (std::size_t j = next_component; j < pruned.size(); ++j) {
    leakage_w += pruned[j].back().leakage_w;
  }
  return leakage_w;
}

OptOutcome<SchemeResult> scheme1_pruned(
    const ComponentEvaluator& eval, const std::vector<tech::DeviceKnobs>& pairs,
    double delay_constraint_s, const OptSpace& space) {
  Tables pruned = space_component_tables(eval, space, pairs);
  const std::size_t n = pruned.size();
  std::vector<std::size_t> full_n(n);
  for (std::size_t i = 0; i < n; ++i) {
    full_n[i] = pruned[i].size();
    pruned[i] = option_frontier(std::move(pruned[i]));
  }

  // Feasibility bound first: the fastest assignment sums the frontier
  // heads, bit-identical to the exhaustive front's fastest member.
  const double fastest = completion_delay(0.0, pruned, 0);
  if (fastest > delay_constraint_s) {
    return detail::infeasible_delay(delay_constraint_s, fastest,
                                    Scheme::kPerComponent);
  }

  // Branch-and-bound incumbent: the all-minimum-leakage chain is a real
  // assignment, so when it meets the constraint its leakage bounds the
  // optimum from above.  States whose minimum-leakage completion strictly
  // exceeds it can neither win nor tie the winner (the tie-breaks only
  // engage at equal leakage), so they are safe to drop mid-search.
  double incumbent_leak = std::numeric_limits<double>::infinity();
  double chain_delay = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    chain_delay += pruned[j].back().delay_s;
  }
  if (chain_delay <= delay_constraint_s) {
    incumbent_leak = completion_leakage(0.0, pruned, 0);
  }

  // Frontier-merge the first n-1 components.  Fronts come back sorted by
  // delay ascending (leakage descending), and the two completion bounds are
  // monotone along the staircase, so the delay cut removes a suffix (too
  // slow to finish) and the leakage cut a prefix (too leaky to beat the
  // incumbent).
  std::vector<Combo> combos{Combo{}};
  for (std::size_t i = 0; i + 1 < n; ++i) {
    detail::count_combos_skipped(combos.size() *
                                 (full_n[i] - pruned[i].size()));
    combos = detail::merge_component(combos, pruned[i], i);
    std::size_t keep = combos.size();
    while (keep > 0 && completion_delay(combos[keep - 1].delay_s, pruned,
                                        i + 1) > delay_constraint_s) {
      --keep;
    }
    std::size_t drop = 0;
    while (drop < keep && completion_leakage(combos[drop].leakage_w, pruned,
                                             i + 1) > incumbent_leak) {
      ++drop;
    }
    detail::count_combos_skipped((combos.size() - (keep - drop)) *
                                 full_n[i + 1]);
    combos.erase(combos.begin() + static_cast<std::ptrdiff_t>(keep),
                 combos.end());
    combos.erase(combos.begin(),
                 combos.begin() + static_cast<std::ptrdiff_t>(drop));
  }

  // Final component: scan the frontier product directly instead of
  // materializing a last merge.  The exhaustive winner is the feasible
  // front member with minimum (leakage, delay, first-formed) — formation
  // order here is (front rank, frontier option rank), matching the DP's
  // stable (partial, option) product order, so keeping the first incumbent
  // on full ties reproduces the same representative.
  const std::size_t last = n - 1;
  const auto& tail = pruned[last];
  const double tail_min_leak = tail.back().leakage_w;  // staircase end

  struct Best {
    bool has = false;
    double leakage_w = 0.0;
    double delay_s = 0.0;
    std::size_t front_rank = 0;
    std::size_t option_rank = 0;
  };
  // Walk the front from its low-leakage end: the merge loop already cut
  // every state whose fastest completion misses the constraint, so each
  // remaining state yields a feasible pair and the first iterations land
  // near the optimum.  Once even the minimum-leakage tail cannot strictly
  // beat the incumbent the walk stops — earlier front members only get
  // leakier.  Never cut on equality: an equal-leakage completion can still
  // win the delay tie-break, and full ties fall back to the exhaustive
  // DP's (partial rank, option rank) formation order.
  Best best;
  std::size_t evaluated = 0;
  for (std::size_t fi = combos.size(); fi-- > 0;) {
    const Combo& f = combos[fi];
    if (best.has && f.leakage_w + tail_min_leak > best.leakage_w) break;
    for (std::size_t oi = 0; oi < tail.size(); ++oi) {
      const double delay = f.delay_s + tail[oi].delay_s;
      ++evaluated;
      if (delay > delay_constraint_s) break;  // tail sorted by delay
      const double leak = f.leakage_w + tail[oi].leakage_w;
      if (!best.has || leak < best.leakage_w ||
          (leak == best.leakage_w &&
           (delay < best.delay_s ||
            (delay == best.delay_s &&
             (fi < best.front_rank ||
              (fi == best.front_rank && oi < best.option_rank)))))) {
        best = Best{true, leak, delay, fi, oi};
      }
    }
  }
  detail::count_combos_evaluated(evaluated);
  detail::count_combos_skipped(combos.size() * full_n[last] - evaluated);

  if (!best.has) {
    // Unreachable once fastest <= constraint: the head×head pair above is
    // feasible by construction.  Kept as a defensive diagnosis.
    return detail::infeasible_delay(delay_constraint_s, fastest,
                                    Scheme::kPerComponent);
  }
  Combo winner = combos[best.front_rank];
  winner.delay_s = best.delay_s;
  winner.leakage_w = best.leakage_w;
  winner.choice[last] = static_cast<std::uint16_t>(best.option_rank);
  return detail::combo_result(space, pruned, winner);
}

// ---------------------------------------------------------------------------
// Schemes II / III: frontier prune + feasible-prefix scan over the block
// pair.  The exhaustive scan breaks (leakage, delay) ties on the ORIGINAL
// flat grid index, so the pruned tables carry their original indices
// through the filter.  Scheme III's periphery block is one all-zero option,
// so the scan keeps the last feasible member of the uniform frontier.
// ---------------------------------------------------------------------------

struct Indexed {
  ComponentOption opt;
  std::size_t orig = 0;
};

std::vector<Indexed> indexed_frontier(const std::vector<ComponentOption>& v) {
  std::vector<Indexed> idx;
  idx.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) idx.push_back({v[i], i});
  return pareto_min2(
      std::move(idx), [](const Indexed& o) { return o.opt.delay_s; },
      [](const Indexed& o) { return o.opt.leakage_w; });
}

OptOutcome<SchemeResult> blocks_pruned(
    const ComponentEvaluator& eval, const std::vector<tech::DeviceKnobs>& pairs,
    Scheme scheme, double delay_constraint_s, const OptSpace& space) {
  const auto blocks = detail::block_tables(eval, space, scheme, pairs);
  const std::size_t np = blocks.periphery.size();
  const auto af = indexed_frontier(blocks.array);
  const auto pf = indexed_frontier(blocks.periphery);

  const double fastest = af.front().opt.delay_s + pf.front().opt.delay_s;
  if (fastest > delay_constraint_s) {
    return detail::infeasible_delay(delay_constraint_s, fastest, scheme);
  }

  struct Best {
    bool has = false;
    double leakage_w = 0.0;
    double delay_s = 0.0;
    std::size_t flat = 0;  ///< original ai * np + pi — the exhaustive key
    std::size_t ai = 0;
    std::size_t pi = 0;
  };
  Best best;
  std::size_t evaluated = 0;
  for (const auto& a : af) {
    if (a.opt.delay_s + pf.front().opt.delay_s > delay_constraint_s) break;
    for (const auto& p : pf) {
      const double delay = a.opt.delay_s + p.opt.delay_s;
      ++evaluated;
      if (delay > delay_constraint_s) break;
      const double leak = a.opt.leakage_w + p.opt.leakage_w;
      const std::size_t flat = a.orig * np + p.orig;
      if (!best.has || leak < best.leakage_w ||
          (leak == best.leakage_w &&
           (delay < best.delay_s ||
            (delay == best.delay_s && flat < best.flat)))) {
        best = Best{true, leak, delay, flat, a.orig, p.orig};
      }
    }
  }
  detail::count_combos_evaluated(evaluated);
  detail::count_combos_skipped(blocks.array.size() * np - evaluated);

  if (!best.has) {
    return detail::infeasible_delay(delay_constraint_s, fastest, scheme);
  }
  return detail::block_result(space, scheme, blocks.array[best.ai],
                              blocks.periphery[best.pi]);
}

}  // namespace

OptOutcome<SchemeResult> optimize_single_cache_pruned(
    const ComponentEvaluator& eval, const KnobGrid& grid, Scheme scheme,
    double delay_constraint_s, const OptSpace& space) {
  const auto pairs = grid.pairs();
  if (scheme == Scheme::kPerComponent) {
    return scheme1_pruned(eval, pairs, delay_constraint_s, space);
  }
  return blocks_pruned(eval, pairs, scheme, delay_constraint_s, space);
}

}  // namespace nanocache::opt
