// Unit tests for the numerical toolbox: linear algebra, the exponential
// fits behind the paper's Eq. (1)/(2), power-law fitting and the
// deterministic RNG.
#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/units.h"

namespace nanocache::math {
namespace {

TEST(SolveLinearSystem, Identity) {
  const auto x = solve_linear_system({1, 0, 0, 1}, {3.0, -4.0});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], -4.0);
}

TEST(SolveLinearSystem, General3x3) {
  // A * [1, -2, 3]^T with A chosen to require pivoting.
  const std::vector<double> a = {0, 2, 1,  //
                                 1, 1, 1,  //
                                 2, 0, -1};
  const std::vector<double> b = {2 * -2 + 3, 1 - 2 + 3, 2 * 1 - 3};
  const auto x = solve_linear_system(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], -2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(SolveLinearSystem, SingularThrows) {
  EXPECT_THROW(solve_linear_system({1, 2, 2, 4}, {1.0, 2.0}), Error);
}

TEST(SolveLinearSystem, SizeMismatchThrows) {
  EXPECT_THROW(solve_linear_system({1, 2, 3}, {1.0, 2.0}), Error);
}

TEST(LeastSquares, ExactLineRecovered) {
  // y = 2 + 3x sampled without noise.
  std::vector<double> design;
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    design.push_back(1.0);
    design.push_back(i);
    y.push_back(2.0 + 3.0 * i);
  }
  const auto beta = least_squares(design, 2, y);
  EXPECT_NEAR(beta[0], 2.0, 1e-6);
  EXPECT_NEAR(beta[1], 3.0, 1e-6);
}

TEST(LeastSquares, OverdeterminedMinimizesResidual) {
  // Points not on a line; the LS slope of y = x^2 over {0,1,2} is 2.
  const std::vector<double> design = {1, 0, 1, 1, 1, 2};
  const std::vector<double> y = {0, 1, 4};
  const auto beta = least_squares(design, 2, y);
  EXPECT_NEAR(beta[1], 2.0, 1e-6);
}

TEST(LeastSquares, UnderdeterminedThrows) {
  EXPECT_THROW(least_squares({1.0, 2.0}, 2, {1.0}), Error);
}

TEST(RSquared, PerfectFitIsOne) {
  EXPECT_DOUBLE_EQ(r_squared({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(RSquared, MeanPredictorIsZero) {
  EXPECT_NEAR(r_squared({1, 2, 3}, {2, 2, 2}), 0.0, 1e-12);
}

TEST(RSquared, MismatchedSizesThrow) {
  EXPECT_THROW(r_squared({1.0}, {1.0, 2.0}), Error);
}

TEST(FitExponential, RecoversKnownCurve) {
  // y = 5 + 2 e^(-3x)
  std::vector<double> x, y;
  for (int i = 0; i <= 20; ++i) {
    x.push_back(i * 0.1);
    y.push_back(5.0 + 2.0 * std::exp(-3.0 * i * 0.1));
  }
  const auto fit = fit_exponential(x, y, -10.0, -0.5);
  EXPECT_NEAR(fit.rate, -3.0, 0.05);
  EXPECT_NEAR(fit.c0, 5.0, 0.02);
  EXPECT_NEAR(fit.c1, 2.0, 0.02);
  EXPECT_GT(fit.r2, 0.9999);
}

TEST(FitExponential, EvaluatesThroughOperator) {
  ExpFit f;
  f.c0 = 1.0;
  f.c1 = 2.0;
  f.rate = 0.5;
  EXPECT_NEAR(f(2.0), 1.0 + 2.0 * std::exp(1.0), 1e-12);
}

TEST(FitExponential, TooFewSamplesThrows) {
  EXPECT_THROW(fit_exponential({1.0, 2.0}, {1.0, 2.0}, -1, 1), Error);
}

TEST(FitSeparableExponentials, RecoversTwoAxisModel) {
  // z = 1 + 4 e^(-20 x) + 9 e^(-0.8 y): the leakage-model shape.
  std::vector<double> x, y, z;
  for (int i = 0; i <= 6; ++i) {
    for (int j = 0; j <= 4; ++j) {
      const double xv = 0.2 + 0.05 * i;
      const double yv = 10.0 + j;
      x.push_back(xv);
      y.push_back(yv);
      z.push_back(1.0 + 4.0 * std::exp(-20.0 * xv) + 9.0 * std::exp(-0.8 * yv));
    }
  }
  const auto fit =
      fit_separable_exponentials(x, y, z, -40, -5, -2.0, -0.2, 60);
  EXPECT_GT(fit.r2_score, 0.999);
  EXPECT_NEAR(fit.r1, -20.0, 1.0);
  EXPECT_NEAR(fit.r2, -0.8, 0.05);
}

TEST(FitExpLinear, RecoversDelayShape) {
  // z = 10 + 0.5 e^(2 x) + 3 y: the delay-model shape (Eq. 2).
  std::vector<double> x, y, z;
  for (int i = 0; i <= 6; ++i) {
    for (int j = 0; j <= 4; ++j) {
      const double xv = 0.2 + 0.05 * i;
      const double yv = 10.0 + j;
      x.push_back(xv);
      y.push_back(yv);
      z.push_back(10.0 + 0.5 * std::exp(2.0 * xv) + 3.0 * yv);
    }
  }
  const auto fit = fit_exp_linear(x, y, z, 0.5, 6.0, 200);
  EXPECT_GT(fit.r2_score, 0.9999);
  EXPECT_NEAR(fit.rate, 2.0, 0.1);
  EXPECT_NEAR(fit.c2, 3.0, 0.01);
}

TEST(FitPowerLaw, RecoversExponent) {
  std::vector<double> x, y;
  for (int i = 1; i <= 16; i *= 2) {
    x.push_back(i);
    y.push_back(3.0 * std::pow(i, -0.5));
  }
  const auto fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.exponent, -0.5, 1e-9);
  EXPECT_NEAR(fit.scale, 3.0, 1e-9);
  EXPECT_GT(fit.r2_log, 0.999999);
}

TEST(FitPowerLaw, RejectsNonPositive) {
  EXPECT_THROW(fit_power_law({1.0, 2.0}, {1.0, -1.0}), Error);
  EXPECT_THROW(fit_power_law({0.0, 2.0}, {1.0, 1.0}), Error);
}

// --- RNG ---------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng r(11);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++hits[r.below(8)];
  }
  for (int h : hits) {
    EXPECT_GT(h, 800);  // each bucket near 1000
  }
}

// --- units --------------------------------------------------------------

TEST(Units, RoundTripConversions) {
  EXPECT_DOUBLE_EQ(units::mw_to_watts(units::watts_to_mw(0.123)), 0.123);
  EXPECT_DOUBLE_EQ(units::ps_to_seconds(units::seconds_to_ps(1e-9)), 1e-9);
  EXPECT_DOUBLE_EQ(units::pj_to_joules(units::joules_to_pj(2e-12)), 2e-12);
}

TEST(Units, ThermalVoltageAtRoomTemp) {
  EXPECT_NEAR(units::thermal_voltage(300.0), 0.02585, 1e-4);
}

TEST(Units, OxideCapScalesInversely) {
  EXPECT_NEAR(units::cox_per_um2(10.0) / units::cox_per_um2(20.0), 2.0,
              1e-12);
  // ~34.5 fF/um^2 at 1 nm.
  EXPECT_NEAR(units::cox_per_um2(10.0) * 1e15, 34.5, 0.5);
}

}  // namespace
}  // namespace nanocache::math
