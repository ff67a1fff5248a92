#include "opt/options.h"

#include "util/error.h"
#include "util/metrics.h"
#include "util/numeric_guard.h"

namespace nanocache::opt {

using cachemodel::ComponentKind;
using cachemodel::ComponentMetrics;

namespace {

void count_grid_points(std::size_t n) {
  static auto& grid_points =
      metrics::Registry::instance().counter("opt.grid_points_evaluated");
  grid_points.add(n);
}

/// `kinds` evaluated at every pair, returned as out[k][r] like
/// CacheModel::components_batch: through the batched kernel when the
/// evaluator has one (bitwise equal to the scalar calls, per the batch
/// contract), else one scalar call per (pair, kind), pair-major.
std::vector<std::vector<ComponentMetrics>> evaluate_all(
    const ComponentEvaluator& eval, const std::vector<ComponentKind>& kinds,
    const std::vector<tech::DeviceKnobs>& pairs) {
  if (const auto& batch = eval.batch()) return batch(kinds, pairs);
  std::vector<std::vector<ComponentMetrics>> out(kinds.size());
  for (auto& table : out) table.reserve(pairs.size());
  for (const auto& k : pairs) {
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      out[i].push_back(eval(kinds[i], k));
    }
  }
  return out;
}

/// Fold one row of evaluate_all's metrics into a summed option, in
/// `kinds` order.
ComponentOption fold_option_row(
    const std::vector<std::vector<ComponentMetrics>>& metrics, std::size_t r,
    const tech::DeviceKnobs& knobs) {
  ComponentOption opt;
  opt.knobs = knobs;
  for (const auto& table : metrics) {
    const auto& m = table[r];
    opt.delay_s += num::ensure_finite(m.delay_s, "block option delay");
    opt.leakage_w += num::ensure_finite(m.leakage_w, "block option leakage");
    opt.dynamic_j +=
        num::ensure_finite(m.dynamic_energy_j, "block option dynamic energy");
  }
  return opt;
}

}  // namespace

ComponentEvaluator structural_evaluator(const cachemodel::CacheModel& model) {
  return ComponentEvaluator(
      [&model](ComponentKind kind, const tech::DeviceKnobs& knobs) {
        return model.component(kind, knobs);
      },
      [&model](const std::vector<ComponentKind>& kinds,
               const std::vector<tech::DeviceKnobs>& pairs) {
        return model.components_batch(kinds, pairs);
      });
}

ComponentEvaluator fitted_evaluator(
    const cachemodel::FittedCacheModel& fits,
    const cachemodel::CacheModel& dynamic_source) {
  return [&fits, &dynamic_source](ComponentKind kind,
                                  const tech::DeviceKnobs& knobs) {
    ComponentMetrics m = dynamic_source.component(kind, knobs);
    // Closed forms replace the structural leakage and delay.
    m.leakage_w = fits.component_leakage_w(kind, knobs);
    m.delay_s = fits.component_delay_s(kind, knobs);
    return m;
  };
}

std::vector<ComponentOption> component_options(
    const ComponentEvaluator& eval, ComponentKind kind,
    const std::vector<tech::DeviceKnobs>& pairs) {
  NC_REQUIRE(!pairs.empty(), "option table needs at least one pair");
  count_grid_points(pairs.size());
  const auto metrics = evaluate_all(eval, {kind}, pairs);
  std::vector<ComponentOption> out;
  out.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& m = metrics[0][i];
    out.push_back(ComponentOption{
        pairs[i], num::ensure_finite(m.delay_s, "component option delay"),
        num::ensure_finite(m.leakage_w, "component option leakage"),
        num::ensure_finite(m.dynamic_energy_j,
                           "component option dynamic energy")});
  }
  return out;
}

std::vector<ComponentOption> block_options(
    const ComponentEvaluator& eval,
    const std::vector<ComponentKind>& kinds,
    const std::vector<tech::DeviceKnobs>& pairs) {
  NC_REQUIRE(!kinds.empty(), "component block needs at least one member");
  NC_REQUIRE(!pairs.empty(), "option table needs at least one pair");
  count_grid_points(pairs.size());
  const auto metrics = evaluate_all(eval, kinds, pairs);
  std::vector<ComponentOption> out;
  out.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    out.push_back(fold_option_row(metrics, i, pairs[i]));
  }
  return out;
}

OptSpace OptSpace::base() {
  OptSpace s;
  s.components = {ComponentKind::kCellArray, ComponentKind::kDecoder,
                  ComponentKind::kAddressDrivers,
                  ComponentKind::kDataDrivers};
  s.array_count = 1;
  return s;
}

OptSpace OptSpace::extended() {
  OptSpace s;
  s.components = {ComponentKind::kCellArray,
                  ComponentKind::kTagArray,
                  ComponentKind::kDecoder,
                  ComponentKind::kAddressDrivers,
                  ComponentKind::kDataDrivers,
                  ComponentKind::kWayComparators};
  s.array_count = 2;
  return s;
}

std::vector<ComponentOption> with_gating(std::vector<ComponentOption> options,
                                         const GatingSpec& gating) {
  if (!gating.enabled) return options;
  NC_REQUIRE(gating.sleep_leakage_factor > 0.0 &&
                 gating.sleep_leakage_factor <= 1.0,
             "sleep leakage factor must be in (0, 1]");
  NC_REQUIRE(gating.wake_delay_factor >= 0.0,
             "wake delay factor must be non-negative");
  std::vector<ComponentOption> out;
  out.reserve(options.size() * 2);
  for (const auto& o : options) {
    out.push_back(o);
    ComponentOption g = o;
    g.gated = true;
    g.leakage_w *= gating.sleep_leakage_factor;
    g.delay_s *= 1.0 + gating.wake_delay_factor;
    out.push_back(g);
  }
  return out;
}

std::vector<std::vector<ComponentOption>> space_component_tables(
    const ComponentEvaluator& eval, const OptSpace& space,
    const std::vector<tech::DeviceKnobs>& pairs) {
  NC_REQUIRE(!space.components.empty(), "optimization space has no components");
  std::vector<std::vector<ComponentOption>> tables;
  tables.reserve(space.components.size());
  for (ComponentKind kind : space.components) {
    tables.push_back(
        with_gating(component_options(eval, kind, pairs), space.gating));
  }
  return tables;
}

std::vector<ComponentOption> space_block_options(
    const ComponentEvaluator& eval, const OptSpace& space, bool array_block,
    const std::vector<tech::DeviceKnobs>& pairs) {
  NC_REQUIRE(space.array_count >= 1 &&
                 space.array_count < space.components.size(),
             "space must split into non-empty array and periphery blocks");
  std::vector<ComponentKind> kinds;
  if (array_block) {
    kinds.assign(space.components.begin(),
                 space.components.begin() +
                     static_cast<std::ptrdiff_t>(space.array_count));
  } else {
    kinds.assign(space.components.begin() +
                     static_cast<std::ptrdiff_t>(space.array_count),
                 space.components.end());
  }
  return with_gating(block_options(eval, kinds, pairs), space.gating);
}

std::vector<ComponentOption> space_uniform_options(
    const ComponentEvaluator& eval, const OptSpace& space,
    const std::vector<tech::DeviceKnobs>& pairs) {
  return with_gating(block_options(eval, space.components, pairs),
                     space.gating);
}

}  // namespace nanocache::opt
