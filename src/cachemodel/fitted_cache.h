// Closed-form cache model (the paper's Section 3 endpoint): for a fixed
// organization, fit Eq. (1)/(2) per component over a characterization grid
// and expose fast evaluators.  This is what the paper's optimizer actually
// consumes; the structural model plays the role of HSPICE.
//
// The fit records its characterization rectangle and per-fit R^2 so
// callers can detect (rather than silently extrapolate through) two
// failure modes: knobs outside the fitted domain, and poorly-conditioned
// fits whose closed forms no longer track the structural model.
#pragma once

#include <array>

#include "cachemodel/cache_model.h"
#include "tech/fitted.h"

namespace nanocache::cachemodel {

/// Per-component fitted leakage/delay models plus fit diagnostics.
class FittedCacheModel {
 public:
  /// Characterize `model` on a vth_steps x tox_steps grid and fit each
  /// component's leakage (Eq. 1) and delay (Eq. 2).
  static FittedCacheModel fit(const CacheModel& model, int vth_steps = 13,
                              int tox_steps = 9);

  double component_leakage_w(ComponentKind kind,
                             const tech::DeviceKnobs& knobs) const;
  double component_delay_s(ComponentKind kind,
                           const tech::DeviceKnobs& knobs) const;

  /// Whole-cache evaluation by summation (paper Section 3).
  double leakage_w(const ComponentAssignment& a) const;
  double access_time_s(const ComponentAssignment& a) const;

  const tech::FittedLeakageModel& leakage_fit(ComponentKind kind) const {
    return leakage_[static_cast<std::size_t>(kind)];
  }
  const tech::FittedDelayModel& delay_fit(ComponentKind kind) const {
    return delay_[static_cast<std::size_t>(kind)];
  }

  /// The (Vth, Tox) rectangle all eight component fits were characterized
  /// over (one grid covers every component).
  const tech::FitDomain& domain() const { return domain_; }

  /// True when the knobs lie inside the characterization rectangle.
  bool in_domain(const tech::DeviceKnobs& knobs) const {
    return domain_.contains(knobs);
  }

  /// Worst R^2 across all eight fits — a single number summarizing how well
  /// the paper's closed forms track the structural model.
  double worst_r2() const;

 private:
  FittedCacheModel() = default;
  std::array<tech::FittedLeakageModel, kNumComponents> leakage_{
      tech::FittedLeakageModel{}, tech::FittedLeakageModel{},
      tech::FittedLeakageModel{}, tech::FittedLeakageModel{}};
  std::array<tech::FittedDelayModel, kNumComponents> delay_{
      tech::FittedDelayModel{}, tech::FittedDelayModel{},
      tech::FittedDelayModel{}, tech::FittedDelayModel{}};
  tech::FitDomain domain_;
};

}  // namespace nanocache::cachemodel
