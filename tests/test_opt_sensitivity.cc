// Tests for the knob-sensitivity module: signs, magnitudes, consistency
// with the closed forms, and the Figure 1 leverage story expressed as
// derivatives.
#include <gtest/gtest.h>

#include <memory>

#include "opt/sensitivity.h"
#include "util/error.h"

namespace nanocache::opt {
namespace {

using cachemodel::CacheModel;

const CacheModel& cache16k() {
  static auto model = [] {
    tech::DeviceModel dev(tech::bptm65());
    return std::make_unique<CacheModel>(
        cachemodel::l1_organization(16 * 1024, dev),
        tech::DeviceModel(dev.params()));
  }();
  return *model;
}

tech::KnobRange range() { return tech::bptm65().knobs; }

TEST(Sensitivity, SignsMatchPhysics) {
  const auto eval = structural_evaluator(cache16k());
  for (const auto& at : {tech::DeviceKnobs{0.25, 11.0},
                         tech::DeviceKnobs{0.35, 12.0},
                         tech::DeviceKnobs{0.45, 13.0}}) {
    const auto s = cache_sensitivity(eval, at, range());
    EXPECT_LT(s.leakage_vs_vth, 0.0);
    EXPECT_LT(s.leakage_vs_tox, 0.0);
    EXPECT_GT(s.delay_vs_vth, 0.0);
    EXPECT_GT(s.delay_vs_tox, 0.0);
  }
}

TEST(Sensitivity, ToxMoreEfficientLeakageKnob) {
  // Leakage bought per delay given up: Tox wins across the mid grid —
  // the quantitative form of "set Tox conservatively, tune with Vth".
  const auto eval = structural_evaluator(cache16k());
  for (const auto& at : {tech::DeviceKnobs{0.35, 11.0},
                         tech::DeviceKnobs{0.40, 12.0}}) {
    const auto s = cache_sensitivity(eval, at, range());
    EXPECT_GT(s.leakage_efficiency_tox(), s.leakage_efficiency_vth());
  }
}

TEST(Sensitivity, VthLeakageSlopeFadesAtThinToxHighVth) {
  // The gate floor: at (high Vth, thin Tox), raising Vth further barely
  // changes total leakage.
  const auto eval = structural_evaluator(cache16k());
  const auto low = cache_sensitivity(eval, {0.25, 10.0}, range());
  const auto high = cache_sensitivity(eval, {0.45, 10.0}, range());
  EXPECT_GT(std::abs(low.leakage_vs_vth), 4.0 * std::abs(high.leakage_vs_vth));
}

TEST(Sensitivity, SubthresholdSlopeMatchesDeviceModel) {
  // At thick Tox and low Vth, total leakage is almost pure subthreshold;
  // the log-slope must approach -1/(n*vT).
  const auto eval = structural_evaluator(cache16k());
  const auto s = cache_sensitivity(eval, {0.22, 14.0}, range());
  const auto p = tech::bptm65();
  const double expected =
      -1.0 / (p.subthreshold_ideality_n * p.thermal_voltage_v());
  EXPECT_NEAR(s.leakage_vs_vth / expected, 1.0, 0.25);
}

TEST(Sensitivity, StencilClampsAtBounds) {
  const auto eval = structural_evaluator(cache16k());
  // Operating points exactly on the knob bounds must not throw.
  EXPECT_NO_THROW(cache_sensitivity(eval, {0.20, 10.0}, range()));
  EXPECT_NO_THROW(cache_sensitivity(eval, {0.50, 14.0}, range()));
}

TEST(Sensitivity, RejectsBadInputs) {
  const auto eval = structural_evaluator(cache16k());
  EXPECT_THROW(cache_sensitivity(eval, {0.10, 12.0}, range()), Error);
  EXPECT_THROW(
      cache_sensitivity(eval, {0.30, 12.0}, range(), /*vth_step=*/-0.01),
      Error);
}

TEST(Sensitivity, MapCoversGrid) {
  const auto eval = structural_evaluator(cache16k());
  KnobGrid g;
  g.vth_values = {0.25, 0.35, 0.45};
  g.tox_values = {11.0, 13.0};
  const auto map = sensitivity_map(eval, g, range());
  ASSERT_EQ(map.size(), 6u);
  for (const auto& s : map) {
    EXPECT_LT(s.leakage_vs_vth, 0.0);
    EXPECT_GT(s.delay_vs_vth, 0.0);
  }
}

TEST(Sensitivity, EfficiencyThrowsOnDegenerateDelay) {
  KnobSensitivity s;
  s.delay_vs_vth = 0.0;
  EXPECT_THROW(s.leakage_efficiency_vth(), Error);
}

}  // namespace
}  // namespace nanocache::opt
