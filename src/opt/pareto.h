// Pareto-dominance utilities (minimization on every axis): the
// 2-objective front shared by the scheme optimizers, the pruned search and
// the tuple solver's (AMAT, energy) records, and thin_to, which caps DP
// state counts.  The tuple DP's 3-objective step is a merge of its own
// (opt/tuple_menu.cc, docs/MODELING.md §6).
//
// Determinism: all sorts are stable and acceptance is first-wins, so the
// returned front (including which of several exactly-equal points
// survives) is a pure function of the input order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace nanocache::opt {

/// Filter `items` to the 2-objective Pareto front under (fx, fy)
/// minimization.  Deterministic: sorted by fx ascending on return, ties
/// resolved by input order.
template <typename T, typename FX, typename FY>
std::vector<T> pareto_min2(std::vector<T> items, FX fx, FY fy) {
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
