// Pareto-dominance utilities (minimization on every axis): the
// 2-objective front shared by the scheme optimizers, the pruned search and
// the tuple solver's (AMAT, energy) records, and thin_to, which caps DP
// state counts.  The tuple DP's 3-objective step is a merge of its own
// (opt/tuple_menu.cc, docs/MODELING.md §6).
//
// Determinism: all sorts are stable and acceptance is first-wins, so the
// returned front (including which of several exactly-equal points
// survives) is a pure function of the input order.  Large inputs are
// pre-filtered in parallel chunks whose local fronts are concatenated in
// chunk order before the final serial pass; because every global-front
// member survives its chunk pass and the final pass re-applies the exact
// serial rule, the parallel path returns byte-identical fronts at any
// thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace nanocache::opt {

namespace detail {

/// Inputs below this size are filtered serially: the sort is cheap and
/// chunk bookkeeping would dominate.
constexpr std::size_t kParetoParallelThreshold = 4096;

/// Chunking for the parallel pre-filter: a function of the input size
/// only, never the thread count, so chunk-front contents are reproducible.
inline std::size_t pareto_chunk(std::size_t n) {
  const std::size_t chunk = (n + 63) / 64;  // at most 64 chunks
  return chunk == 0 ? 1 : chunk;
}

template <typename T, typename FX, typename FY>
std::vector<T> pareto_min2_serial(std::vector<T> items, FX& fx, FY& fy) {
  std::stable_sort(items.begin(), items.end(), [&](const T& a, const T& b) {
    if (fx(a) != fx(b)) return fx(a) < fx(b);
    return fy(a) < fy(b);
  });
  std::vector<T> front;
  double best_y = std::numeric_limits<double>::infinity();
  for (auto& item : items) {
    if (fy(item) < best_y) {
      best_y = fy(item);
      front.push_back(std::move(item));
    }
  }
  return front;
}

/// Split `items` into order-preserving chunks, reduce each to its local
/// front via `filter` (in parallel), and concatenate the local fronts in
/// chunk order.  The result is a superset of the global front whose
/// relative order of surviving elements matches the input.
template <typename T, typename Filter>
std::vector<T> chunked_prefilter(std::vector<T>&& items, Filter&& filter) {
  const std::size_t n = items.size();
  const std::size_t chunk = pareto_chunk(n);
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  auto fronts = par::parallel_map(num_chunks, [&](std::size_t c) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = lo + chunk < n ? lo + chunk : n;
    std::vector<T> slice;
    slice.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) slice.push_back(std::move(items[i]));
    return filter(std::move(slice));
  });
  std::vector<T> merged;
  for (auto& f : fronts) {
    merged.insert(merged.end(), std::make_move_iterator(f.begin()),
                  std::make_move_iterator(f.end()));
  }
  return merged;
}

}  // namespace detail

/// Filter `items` to the 2-objective Pareto front under (fx, fy)
/// minimization.  Deterministic: sorted by fx ascending on return, ties
/// resolved by input order.
template <typename T, typename FX, typename FY>
std::vector<T> pareto_min2(std::vector<T> items, FX fx, FY fy) {
  if (items.size() >= detail::kParetoParallelThreshold &&
      !par::in_parallel_region() && par::default_threads() > 1) {
    items = detail::chunked_prefilter(
        std::move(items), [&](std::vector<T> slice) {
          return detail::pareto_min2_serial(std::move(slice), fx, fy);
        });
  }
  return detail::pareto_min2_serial(std::move(items), fx, fy);
}

/// Evenly thin `items` (assumed sorted along the sweep axis) down to at
/// most `cap` entries, always keeping the first and last.  Used to bound DP
/// state growth; a documented approximation.
template <typename T>
void thin_to(std::vector<T>& items, std::size_t cap) {
  if (cap < 2 || items.size() <= cap) return;
  std::vector<T> kept;
  kept.reserve(cap);
  const double step =
      static_cast<double>(items.size() - 1) / static_cast<double>(cap - 1);
  std::size_t last = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < cap; ++i) {
    const auto idx = static_cast<std::size_t>(i * step + 0.5);
    if (idx != last) {
      kept.push_back(std::move(items[idx]));
      last = idx;
    }
  }
  items = std::move(kept);
}

}  // namespace nanocache::opt
