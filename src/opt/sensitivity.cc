#include "opt/sensitivity.h"

#include <cmath>

#include "util/error.h"

namespace nanocache::opt {

using cachemodel::ComponentKind;
using cachemodel::kAllComponents;

double KnobSensitivity::leakage_efficiency_vth() const {
  NC_REQUIRE(delay_vs_vth != 0.0, "degenerate delay sensitivity");
  return std::abs(leakage_vs_vth / delay_vs_vth);
}

double KnobSensitivity::leakage_efficiency_tox() const {
  NC_REQUIRE(delay_vs_tox != 0.0, "degenerate delay sensitivity");
  return std::abs(leakage_vs_tox / delay_vs_tox);
}

namespace {

/// Clamp a central-difference stencil inside [lo, hi]; returns the actual
/// plus/minus abscissae used.
void stencil(double at, double step, double lo, double hi, double* minus,
             double* plus) {
  NC_REQUIRE(step > 0.0, "sensitivity step must be positive");
  NC_REQUIRE(at >= lo && at <= hi, "operating point outside knob range");
  *minus = std::max(lo, at - step);
  *plus = std::min(hi, at + step);
  NC_REQUIRE(*plus > *minus, "knob range too narrow for a stencil");
}

/// d ln f / dx by (possibly one-sided) finite differences.
template <typename F>
double log_derivative(F f, double at, double step, double lo, double hi) {
  double minus = 0.0;
  double plus = 0.0;
  stencil(at, step, lo, hi, &minus, &plus);
  const double f_minus = f(minus);
  const double f_plus = f(plus);
  NC_REQUIRE(f_minus > 0.0 && f_plus > 0.0,
             "log-sensitivity requires positive metrics");
  return (std::log(f_plus) - std::log(f_minus)) / (plus - minus);
}

template <typename LeakFn, typename DelayFn>
KnobSensitivity sensitivities(LeakFn leak, DelayFn delay,
                              const tech::DeviceKnobs& at,
                              const tech::KnobRange& range, double vth_step,
                              double tox_step) {
  KnobSensitivity s;
  s.leakage_vs_vth = log_derivative(
      [&](double v) { return leak(tech::DeviceKnobs{v, at.tox_a}); },
      at.vth_v, vth_step, range.vth_min_v, range.vth_max_v);
  s.leakage_vs_tox = log_derivative(
      [&](double t) { return leak(tech::DeviceKnobs{at.vth_v, t}); },
      at.tox_a, tox_step, range.tox_min_a, range.tox_max_a);
  s.delay_vs_vth = log_derivative(
      [&](double v) { return delay(tech::DeviceKnobs{v, at.tox_a}); },
      at.vth_v, vth_step, range.vth_min_v, range.vth_max_v);
  s.delay_vs_tox = log_derivative(
      [&](double t) { return delay(tech::DeviceKnobs{at.vth_v, t}); },
      at.tox_a, tox_step, range.tox_min_a, range.tox_max_a);
  return s;
}

}  // namespace

KnobSensitivity cache_sensitivity(const ComponentEvaluator& eval,
                                  const tech::DeviceKnobs& at,
                                  const tech::KnobRange& range,
                                  double vth_step_v, double tox_step_a) {
  auto total = [&](const tech::DeviceKnobs& k, bool leak) {
    double sum = 0.0;
    for (ComponentKind kind : kAllComponents) {
      const auto m = eval(kind, k);
      sum += leak ? m.leakage_w : m.delay_s;
    }
    return sum;
  };
  return sensitivities(
      [&](const tech::DeviceKnobs& k) { return total(k, true); },
      [&](const tech::DeviceKnobs& k) { return total(k, false); }, at, range,
      vth_step_v, tox_step_a);
}

std::vector<KnobSensitivity> sensitivity_map(const ComponentEvaluator& eval,
                                             const KnobGrid& grid,
                                             const tech::KnobRange& range) {
  std::vector<KnobSensitivity> out;
  for (const auto& k : grid.pairs()) {
    out.push_back(cache_sensitivity(eval, k, range));
  }
  return out;
}

}  // namespace nanocache::opt
