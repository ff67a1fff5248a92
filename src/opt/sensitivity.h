// Knob sensitivity analysis: normalized local derivatives of a cache's
// leakage and delay with respect to Vth and Tox.  This quantifies the
// Figure 1 discussion — which knob is the stronger leakage lever and which
// the stronger delay lever — at any operating point, and drives the
// ablation benches.
#pragma once

#include <vector>

#include "opt/options.h"

namespace nanocache::opt {

/// Normalized (logarithmic) sensitivities at one operating point:
/// d ln(metric) / d knob, evaluated by central differences.  Units:
/// 1/V for Vth, 1/Angstrom for Tox.
struct KnobSensitivity {
  double leakage_vs_vth = 0.0;  ///< d ln(P) / d Vth   (negative)
  double leakage_vs_tox = 0.0;  ///< d ln(P) / d Tox   (negative)
  double delay_vs_vth = 0.0;    ///< d ln(Td) / d Vth  (positive)
  double delay_vs_tox = 0.0;    ///< d ln(Td) / d Tox  (positive)

  /// Leakage reduction bought per unit of delay given up, moving along one
  /// knob: |d ln P / d ln Td|.  The better leakage knob has the larger
  /// efficiency.
  double leakage_efficiency_vth() const;
  double leakage_efficiency_tox() const;
};

/// Whole-cache central-difference sensitivities at `at` (component metrics
/// summed before the log).  Steps default to 10 mV / 0.1 A and are shrunk
/// near the knob bounds.
KnobSensitivity cache_sensitivity(const ComponentEvaluator& eval,
                                  const tech::DeviceKnobs& at,
                                  const tech::KnobRange& range,
                                  double vth_step_v = 0.01,
                                  double tox_step_a = 0.1);

/// A sensitivity map over a knob grid (row-major, vth-major ordering as
/// KnobGrid::pairs).  Feeds the ablation bench's tables.
std::vector<KnobSensitivity> sensitivity_map(const ComponentEvaluator& eval,
                                             const KnobGrid& grid,
                                             const tech::KnobRange& range);

}  // namespace nanocache::opt
