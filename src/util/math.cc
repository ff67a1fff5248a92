#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace nanocache::math {

std::vector<double> solve_linear_system(std::vector<double> a,
                                        std::vector<double> b) {
  const std::size_t n = b.size();
  NC_REQUIRE(a.size() == n * n, "matrix/vector size mismatch");
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col])) {
        pivot = row;
      }
    }
    if (pivot != col) {
      for (std::size_t k = 0; k < n; ++k) {
        std::swap(a[col * n + k], a[pivot * n + k]);
      }
      std::swap(b[col], b[pivot]);
    }
    const double p = a[col * n + col];
    NC_REQUIRE(std::abs(p) > 1e-300, "singular linear system");
    for (std::size_t row = col + 1; row < n; ++row) {
      const double f = a[row * n + col] / p;
      if (f == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) {
        a[row * n + k] -= f * a[col * n + k];
      }
      b[row] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t k = i + 1; k < n; ++k) {
      s -= a[i * n + k] * x[k];
    }
    x[i] = s / a[i * n + i];
  }
  return x;
}

std::vector<double> least_squares(const std::vector<double>& x_rowmajor,
                                  std::size_t cols,
                                  const std::vector<double>& y) {
  NC_REQUIRE(cols > 0, "least_squares needs at least one column");
  NC_REQUIRE(x_rowmajor.size() == cols * y.size(),
             "design matrix size mismatch");
  NC_REQUIRE(y.size() >= cols, "underdetermined least squares");
  const std::size_t rows = y.size();
  // Normal equations: (X^T X) beta = X^T y.
  std::vector<double> xtx(cols * cols, 0.0);
  std::vector<double> xty(cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = &x_rowmajor[r * cols];
    for (std::size_t i = 0; i < cols; ++i) {
      xty[i] += xr[i] * y[r];
      for (std::size_t j = 0; j < cols; ++j) {
        xtx[i * cols + j] += xr[i] * xr[j];
      }
    }
  }
  // Tiny ridge term keeps nearly-collinear rate scans well conditioned.
  for (std::size_t i = 0; i < cols; ++i) {
    xtx[i * cols + i] += 1e-12 * (xtx[i * cols + i] + 1.0);
  }
  return solve_linear_system(std::move(xtx), std::move(xty));
}

double r_squared(const std::vector<double>& observed,
                 const std::vector<double>& predicted) {
  NC_REQUIRE(observed.size() == predicted.size() && !observed.empty(),
             "r_squared input mismatch");
  double mean = 0.0;
  for (double v : observed) mean += v;
  mean /= static_cast<double>(observed.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double r = observed[i] - predicted[i];
    const double t = observed[i] - mean;
    ss_res += r * r;
    ss_tot += t * t;
  }
  if (ss_tot <= 0.0) return ss_res <= 1e-30 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double SeparableExpFit::operator()(double x1, double x2) const {
  return c0 + c1 * std::exp(r1 * x1) + c2 * std::exp(r2 * x2);
}

SeparableExpFit fit_separable_exponentials(
    const std::vector<double>& x1, const std::vector<double>& x2,
    const std::vector<double>& y, double r1_lo, double r1_hi, double r2_lo,
    double r2_hi, int steps) {
  NC_REQUIRE(x1.size() == y.size() && x2.size() == y.size() && y.size() >= 5,
             "fit_separable_exponentials needs >= 5 samples");
  NC_REQUIRE(r1_hi > r1_lo && r2_hi > r2_lo, "invalid rate brackets");

  const std::size_t n = y.size();
  SeparableExpFit best;
  double best_ss = std::numeric_limits<double>::infinity();

  std::vector<double> design(n * 3);
  for (int i = 0; i <= steps; ++i) {
    const double r1 = r1_lo + (r1_hi - r1_lo) * static_cast<double>(i) / steps;
    for (int j = 0; j <= steps; ++j) {
      const double r2 =
          r2_lo + (r2_hi - r2_lo) * static_cast<double>(j) / steps;
      for (std::size_t k = 0; k < n; ++k) {
        design[k * 3 + 0] = 1.0;
        design[k * 3 + 1] = std::exp(r1 * x1[k]);
        design[k * 3 + 2] = std::exp(r2 * x2[k]);
      }
      const auto beta = least_squares(design, 3, y);
      double ss = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double p = beta[0] + beta[1] * design[k * 3 + 1] +
                         beta[2] * design[k * 3 + 2];
        const double r = y[k] - p;
        ss += r * r;
      }
      if (ss < best_ss) {
        best_ss = ss;
        best.c0 = beta[0];
        best.c1 = beta[1];
        best.r1 = r1;
        best.c2 = beta[2];
        best.r2 = r2;
      }
    }
  }
  std::vector<double> pred(n);
  for (std::size_t k = 0; k < n; ++k) pred[k] = best(x1[k], x2[k]);
  best.r2_score = r_squared(y, pred);
  return best;
}

double ExpLinearFit::operator()(double x1, double x2) const {
  return c0 + c1 * std::exp(rate * x1) + c2 * x2;
}

ExpLinearFit fit_exp_linear(const std::vector<double>& x1,
                            const std::vector<double>& x2,
                            const std::vector<double>& y, double rate_lo,
                            double rate_hi, int steps) {
  NC_REQUIRE(x1.size() == y.size() && x2.size() == y.size() && y.size() >= 4,
             "fit_exp_linear needs >= 4 samples");
  NC_REQUIRE(rate_hi > rate_lo, "invalid rate bracket");

  const std::size_t n = y.size();
  ExpLinearFit best;
  double best_ss = std::numeric_limits<double>::infinity();
  std::vector<double> design(n * 3);
  for (int i = 0; i <= steps; ++i) {
    const double rate =
        rate_lo + (rate_hi - rate_lo) * static_cast<double>(i) / steps;
    for (std::size_t k = 0; k < n; ++k) {
      design[k * 3 + 0] = 1.0;
      design[k * 3 + 1] = std::exp(rate * x1[k]);
      design[k * 3 + 2] = x2[k];
    }
    const auto beta = least_squares(design, 3, y);
    double ss = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double p = beta[0] + beta[1] * design[k * 3 + 1] +
                       beta[2] * design[k * 3 + 2];
      const double r = y[k] - p;
      ss += r * r;
    }
    if (ss < best_ss) {
      best_ss = ss;
      best.c0 = beta[0];
      best.c1 = beta[1];
      best.rate = rate;
      best.c2 = beta[2];
    }
  }
  std::vector<double> pred(n);
  for (std::size_t k = 0; k < n; ++k) pred[k] = best(x1[k], x2[k]);
  best.r2_score = r_squared(y, pred);
  return best;
}

double PowerLawFit::operator()(double x) const {
  return scale * std::pow(x, exponent);
}

PowerLawFit fit_power_law(const std::vector<double>& x,
                          const std::vector<double>& y) {
  NC_REQUIRE(x.size() == y.size() && x.size() >= 2,
             "fit_power_law needs >= 2 samples");
  const std::size_t n = x.size();
  std::vector<double> design(n * 2);
  std::vector<double> logy(n);
  for (std::size_t i = 0; i < n; ++i) {
    NC_REQUIRE(x[i] > 0.0 && y[i] > 0.0,
               "fit_power_law needs strictly positive data");
    design[i * 2 + 0] = 1.0;
    design[i * 2 + 1] = std::log(x[i]);
    logy[i] = std::log(y[i]);
  }
  const auto beta = least_squares(design, 2, logy);
  PowerLawFit fit;
  fit.scale = std::exp(beta[0]);
  fit.exponent = beta[1];
  std::vector<double> pred(n);
  for (std::size_t i = 0; i < n; ++i) {
    pred[i] = beta[0] + beta[1] * design[i * 2 + 1];
  }
  fit.r2_log = r_squared(logy, pred);
  return fit;
}

}  // namespace nanocache::math
