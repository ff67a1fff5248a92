#include "cachemodel/fitted_cache.h"

#include <algorithm>

#include "tech/characterize.h"
#include "util/numeric_guard.h"

namespace nanocache::cachemodel {

FittedCacheModel FittedCacheModel::fit(const CacheModel& model, int vth_steps,
                                       int tox_steps) {
  FittedCacheModel out;
  const auto grid = tech::knob_grid(model.device().params().knobs, vth_steps,
                                    tox_steps);
  for (ComponentKind kind : kAllComponents) {
    const auto idx = static_cast<std::size_t>(kind);
    const auto leak_samples = tech::characterize(
        grid, [&](const tech::DeviceKnobs& k) {
          return model.component(kind, k).leakage_w;
        });
    const auto delay_samples = tech::characterize(
        grid, [&](const tech::DeviceKnobs& k) {
          return model.component(kind, k).delay_s;
        });
    out.leakage_[idx] = tech::FittedLeakageModel::fit(leak_samples);
    out.delay_[idx] = tech::FittedDelayModel::fit(delay_samples);
  }
  out.domain_ =
      out.leakage_[static_cast<std::size_t>(ComponentKind::kCellArray)]
          .domain();
  return out;
}

double FittedCacheModel::component_leakage_w(
    ComponentKind kind, const tech::DeviceKnobs& knobs) const {
  return leakage_[static_cast<std::size_t>(kind)](knobs);
}

double FittedCacheModel::component_delay_s(
    ComponentKind kind, const tech::DeviceKnobs& knobs) const {
  return delay_[static_cast<std::size_t>(kind)](knobs);
}

double FittedCacheModel::leakage_w(const ComponentAssignment& a) const {
  double sum = 0.0;
  for (ComponentKind kind : kAllComponents) {
    sum += component_leakage_w(kind, a.get(kind));
  }
  return num::ensure_finite(sum, "fitted cache leakage");
}

double FittedCacheModel::access_time_s(const ComponentAssignment& a) const {
  double sum = 0.0;
  for (ComponentKind kind : kAllComponents) {
    sum += component_delay_s(kind, a.get(kind));
  }
  return num::ensure_finite(sum, "fitted cache access time");
}

double FittedCacheModel::worst_r2() const {
  double worst = 1.0;
  for (std::size_t i = 0; i < kNumComponents; ++i) {
    worst = std::min(worst, leakage_[i].r2());
    worst = std::min(worst, delay_[i].r2());
  }
  return worst;
}

}  // namespace nanocache::cachemodel
