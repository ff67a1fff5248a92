// Small numerical toolbox: dense linear least squares, the
// exponential-plus-constant fits used by the paper's closed-form models,
// and goodness-of-fit statistics.
#pragma once

#include <cstddef>
#include <vector>

namespace nanocache::math {

/// Solve the square linear system A x = b by Gaussian elimination with
/// partial pivoting.  A is row-major n*n.  Throws nanocache::Error if the
/// system is singular (pivot below 1e-300).
std::vector<double> solve_linear_system(std::vector<double> a,
                                        std::vector<double> b);

/// Ordinary least squares: find beta minimizing ||X beta - y||_2 where X is
/// row-major with `cols` columns.  Solved via the normal equations, which is
/// ample for the small, well-conditioned design matrices used here.
std::vector<double> least_squares(const std::vector<double>& x_rowmajor,
                                  std::size_t cols,
                                  const std::vector<double>& y);

/// Coefficient of determination of predictions vs observations.
double r_squared(const std::vector<double>& observed,
                 const std::vector<double>& predicted);

/// Result of fitting y = c0 + c1 * exp(r1 * x1) + c2 * exp(r2 * x2), the
/// two-variable separable form of the paper's leakage model (Eq. 1).
struct SeparableExpFit {
  double c0 = 0.0;
  double c1 = 0.0;
  double r1 = 0.0;
  double c2 = 0.0;
  double r2 = 0.0;
  double r2_score = 0.0;

  double operator()(double x1, double x2) const;
};

/// Fit the separable double-exponential above over paired samples
/// (x1[i], x2[i]) -> y[i].  Rates are scanned on grids; coefficients come
/// from the inner least-squares solve.
SeparableExpFit fit_separable_exponentials(
    const std::vector<double>& x1, const std::vector<double>& x2,
    const std::vector<double>& y, double r1_lo, double r1_hi, double r2_lo,
    double r2_hi, int steps = 60);

/// Result of fitting y = c0 + c1 * exp(rate * x1) + c2 * x2, the paper's
/// delay model form (Eq. 2): exponential in Vth, linear in Tox.
struct ExpLinearFit {
  double c0 = 0.0;
  double c1 = 0.0;
  double rate = 0.0;
  double c2 = 0.0;
  double r2_score = 0.0;

  double operator()(double x1, double x2) const;
};

ExpLinearFit fit_exp_linear(const std::vector<double>& x1,
                            const std::vector<double>& x2,
                            const std::vector<double>& y, double rate_lo,
                            double rate_hi, int steps = 200);

/// Fit y = c * x^p (power law) via least squares in log-log space.
/// All x and y must be strictly positive.
struct PowerLawFit {
  double scale = 0.0;
  double exponent = 0.0;
  double r2_log = 0.0;

  double operator()(double x) const;
};

PowerLawFit fit_power_law(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace nanocache::math
