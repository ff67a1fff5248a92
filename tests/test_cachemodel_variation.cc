// Tests for the Monte-Carlo variation analysis.
#include <gtest/gtest.h>

#include <memory>

#include "cachemodel/variation.h"
#include "util/error.h"

namespace nanocache {
namespace {

using cachemodel::CacheModel;
using cachemodel::ComponentAssignment;

const CacheModel& cache16k() {
  static auto model = [] {
    tech::DeviceModel dev(tech::bptm65());
    return std::make_unique<CacheModel>(
        cachemodel::l1_organization(16 * 1024, dev),
        tech::DeviceModel(dev.params()));
  }();
  return *model;
}

TEST(Variation, DeterministicForSeed) {
  const ComponentAssignment a(tech::DeviceKnobs{0.35, 12.0});
  cachemodel::VariationParams p;
  p.samples = 100;
  const auto r1 = cachemodel::monte_carlo(cache16k(), a, p, 0.0, 7);
  const auto r2 = cachemodel::monte_carlo(cache16k(), a, p, 0.0, 7);
  EXPECT_DOUBLE_EQ(r1.leakage_w.mean, r2.leakage_w.mean);
  EXPECT_DOUBLE_EQ(r1.leakage_w.p95, r2.leakage_w.p95);
}

TEST(Variation, ZeroSigmaDegeneratesToNominal) {
  const ComponentAssignment a(tech::DeviceKnobs{0.35, 12.0});
  cachemodel::VariationParams p;
  p.vth_sigma_v = 0.0;
  p.tox_sigma_a = 0.0;
  p.samples = 10;
  const auto r = cachemodel::monte_carlo(cache16k(), a, p);
  const auto nominal = cache16k().evaluate(a);
  EXPECT_NEAR(r.leakage_w.mean, nominal.leakage_w,
              nominal.leakage_w * 1e-12);
  EXPECT_NEAR(r.leakage_w.stddev, 0.0, nominal.leakage_w * 1e-12);
  EXPECT_DOUBLE_EQ(r.timing_yield, 1.0);
}

TEST(Variation, LeakageSkewsAboveNominal) {
  // exp() of a Gaussian has mean above the nominal (Jensen).
  const ComponentAssignment a(tech::DeviceKnobs{0.40, 13.0});
  cachemodel::VariationParams p;
  p.samples = 1500;
  const auto r = cachemodel::monte_carlo(cache16k(), a, p);
  const auto nominal = cache16k().evaluate(a);
  EXPECT_GT(r.leakage_w.mean, nominal.leakage_w);
  EXPECT_GT(r.leakage_w.p95, r.leakage_w.mean);
  EXPECT_LE(r.leakage_w.min, r.leakage_w.mean);
  EXPECT_GE(r.leakage_w.max, r.leakage_w.p95);
}

TEST(Variation, YieldMonotoneInConstraint) {
  const ComponentAssignment a(tech::DeviceKnobs{0.35, 12.0});
  const auto nominal = cache16k().evaluate(a);
  cachemodel::VariationParams p;
  p.samples = 400;
  const auto tight = cachemodel::monte_carlo(
      cache16k(), a, p, nominal.access_time_s * 0.97);
  const auto exact = cachemodel::monte_carlo(cache16k(), a, p,
                                             nominal.access_time_s);
  const auto loose = cachemodel::monte_carlo(
      cache16k(), a, p, nominal.access_time_s * 1.10);
  EXPECT_LE(tight.timing_yield, exact.timing_yield);
  EXPECT_LE(exact.timing_yield, loose.timing_yield);
  EXPECT_GT(loose.timing_yield, 0.9);
  EXPECT_LT(tight.timing_yield, 0.5);
}

TEST(Variation, Validates) {
  const ComponentAssignment a(tech::DeviceKnobs{0.35, 12.0});
  cachemodel::VariationParams p;
  p.samples = 1;
  EXPECT_THROW(cachemodel::monte_carlo(cache16k(), a, p), Error);
  p.samples = 10;
  p.vth_sigma_v = -1.0;
  EXPECT_THROW(cachemodel::monte_carlo(cache16k(), a, p), Error);
}

}  // namespace
}  // namespace nanocache
