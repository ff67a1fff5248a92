// Graceful fitted->structural degradation: inside the fitted domain the
// fitted evaluator tracks the structural model; outside it (or below the
// R^2 floor) the Explorer falls back to the structural model and records
// the event — or throws under the strict policy.  The recorded events are
// visible in the report layer.
#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/report.h"
#include "util/error.h"

namespace nanocache::core {
namespace {

using cachemodel::ComponentKind;

Explorer make_fitted_explorer(DegradationPolicy policy =
                                  DegradationPolicy::kFallbackToStructural,
                              double r2_floor = 0.80) {
  ExperimentConfig cfg;
  cfg.use_fitted_models = true;
  cfg.degradation_policy = policy;
  cfg.fitted_r2_floor = r2_floor;
  return Explorer(cfg);
}

TEST(Degradation, InDomainFittedAgreesWithStructural) {
  const Explorer e = make_fitted_explorer();
  const auto& m = e.l1_model(16 * 1024);
  const auto eval = e.evaluator(m);
  int compared = 0;
  for (const tech::DeviceKnobs knobs :
       {tech::DeviceKnobs{0.25, 10.5}, tech::DeviceKnobs{0.35, 12.0},
        tech::DeviceKnobs{0.45, 13.5}}) {
    for (auto kind : cachemodel::kAllComponents) {
      const auto fitted = eval(kind, knobs);
      const auto structural = m.component(kind, knobs);
      // The closed forms are fits, not identities: allow the fit error the
      // paper accepts, but nothing resembling an extrapolation blow-up.
      EXPECT_NEAR(fitted.leakage_w, structural.leakage_w,
                  structural.leakage_w * 0.5)
          << cachemodel::component_name(kind);
      EXPECT_NEAR(fitted.delay_s, structural.delay_s,
                  structural.delay_s * 0.25)
          << cachemodel::component_name(kind);
      ++compared;
    }
  }
  EXPECT_GE(compared, 12);
  // A healthy in-domain run records nothing.
  EXPECT_TRUE(e.degradation_events().empty());
}

TEST(Degradation, OutOfDomainFallsBackToStructuralAndRecords) {
  const Explorer e = make_fitted_explorer();
  const auto& m = e.l1_model(16 * 1024);
  const auto eval = e.evaluator(m);
  const tech::DeviceKnobs outside{0.55, 12.0};  // beyond the 0.5 V grid edge
  const auto fallback = eval(ComponentKind::kCellArray, outside);
  const auto structural = m.component(ComponentKind::kCellArray, outside);
  EXPECT_DOUBLE_EQ(fallback.leakage_w, structural.leakage_w);
  EXPECT_DOUBLE_EQ(fallback.delay_s, structural.delay_s);
  ASSERT_EQ(e.degradation_events().size(), 1u);
  EXPECT_NE(e.degradation_events()[0].reason.find("outside fitted domain"),
            std::string::npos);

  // Repeats of the same cause are deduplicated, not spammed.
  eval(ComponentKind::kDecoder, outside);
  EXPECT_EQ(e.degradation_events().size(), 1u);

  // The fallback is visible in the report layer.
  const auto csv = degradation_table(e).to_csv();
  EXPECT_NE(csv.find("outside fitted domain"), std::string::npos);
}

TEST(Degradation, StrictPolicyThrowsOutOfDomain) {
  const Explorer e = make_fitted_explorer(DegradationPolicy::kStrict);
  const auto eval = e.evaluator(e.l1_model(16 * 1024));
  try {
    eval(ComponentKind::kCellArray, tech::DeviceKnobs{0.55, 12.0});
    FAIL() << "strict policy must throw out of domain";
  } catch (const Error& err) {
    EXPECT_EQ(err.category(), ErrorCategory::kNumericDomain) << err.what();
  }
  EXPECT_TRUE(e.degradation_events().empty());
}

TEST(Degradation, R2FloorForcesWholeModelFallback) {
  // No fit is perfect, so a floor of 1.0 rejects even the healthy ones and
  // the evaluator must degrade to the pure structural path.
  const Explorer e = make_fitted_explorer(
      DegradationPolicy::kFallbackToStructural, /*r2_floor=*/1.0);
  const auto& m = e.l1_model(16 * 1024);
  const auto eval = e.evaluator(m);
  const tech::DeviceKnobs knobs{0.35, 12.0};
  const auto got = eval(ComponentKind::kCellArray, knobs);
  const auto structural = m.component(ComponentKind::kCellArray, knobs);
  EXPECT_DOUBLE_EQ(got.leakage_w, structural.leakage_w);
  EXPECT_DOUBLE_EQ(got.delay_s, structural.delay_s);
  ASSERT_EQ(e.degradation_events().size(), 1u);
  EXPECT_NE(e.degradation_events()[0].reason.find("R^2"), std::string::npos);
}

TEST(Degradation, R2FloorStrictThrows) {
  const Explorer e =
      make_fitted_explorer(DegradationPolicy::kStrict, /*r2_floor=*/1.0);
  try {
    e.evaluator(e.l1_model(16 * 1024));
    FAIL() << "strict policy must reject a below-floor fit";
  } catch (const Error& err) {
    EXPECT_EQ(err.category(), ErrorCategory::kNumericDomain) << err.what();
  }
}

TEST(Degradation, SweepRowsCarryInfeasibleReasons) {
  // An impossible AMAT target: every row must explain itself rather than
  // leaving an unexplained hole.
  Explorer e;
  const auto rows = e.l2_size_sweep(opt::Scheme::kUniform, 1e-12);
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    EXPECT_FALSE(r.feasible);
    EXPECT_FALSE(r.infeasible_reason.empty()) << r.size_bytes;
  }
}

}  // namespace
}  // namespace nanocache::core
