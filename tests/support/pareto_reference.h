// Reference 3-objective Pareto filter: stable-sort by (fx, fy, fz), then
// sweep a (fy, fz) staircase, first wins.  The tuple DP's merged step
// (opt::detail::pareto_step) must return exactly what this returns on the
// step's extensions in state-major order, so tests keep it as the oracle.
#pragma once

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

namespace nanocache::opt::reference {

/// Filter to the 3-objective Pareto front under (fx, fy, fz) minimization,
/// via the sorted sweep + 2D staircase query (O(n log n)).  Sorted by
/// (fx, fy, fz) on return, ties resolved by input order.
template <typename T, typename FX, typename FY, typename FZ>
std::vector<T> pareto_min3(std::vector<T> items, FX fx, FY fy, FZ fz) {
  std::stable_sort(items.begin(), items.end(), [&](const T& a, const T& b) {
    if (fx(a) != fx(b)) return fx(a) < fx(b);
    if (fy(a) != fy(b)) return fy(a) < fy(b);
    return fz(a) < fz(b);
  });
  // Staircase of mutually non-dominated (y, z) minima over all accepted
  // points: y strictly increasing, z strictly decreasing.
  std::vector<std::pair<double, double>> stair;
  std::vector<T> front;
  for (auto& item : items) {
    const double y = fy(item);
    const double z = fz(item);
    // Dominated iff some accepted point (all of which have fx <= item's fx)
    // has y' <= y and z' <= z: find the last stair entry with y' <= y.
    auto it = std::upper_bound(
        stair.begin(), stair.end(), y,
        [](double value, const std::pair<double, double>& s) {
          return value < s.first;
        });
    if (it != stair.begin() && std::prev(it)->second <= z) {
      continue;  // dominated
    }
    front.push_back(item);
    // Insert (y, z) into the staircase, removing entries it dominates.
    auto ins = std::lower_bound(
        stair.begin(), stair.end(), y,
        [](const std::pair<double, double>& s, double value) {
          return s.first < value;
        });
    ins = stair.insert(ins, {y, z});
    auto next = std::next(ins);
    while (next != stair.end() && next->second >= z) {
      next = stair.erase(next);
    }
  }
  return front;
}

}  // namespace nanocache::opt::reference
