// The paper's closed-form models (Section 3), obtained by fitting
// characterization samples:
//
//   Eq. (1)  P_total(Vth, Tox) = A0 + A1 * e^(a1 * Vth) + A2 * e^(a2 * Tox)
//   Eq. (2)  T_d(Vth, Tox)     = k0 + k1 * e^(k3 * Vth) + k2 * Tox
//
// with a1, a2 < 0 (leakage falls with either knob) and k3 > 0 small (delay
// grows weakly-exponentially with Vth, linearly with Tox).
//
// Each fitted model records the (Vth, Tox) rectangle its samples spanned
// and its R^2.  Leakage is sharply nonlinear in the operating point, so
// extrapolating the closed forms outside the characterization grid is not
// merely inaccurate — it is undefined behaviour of the model.  The
// *_checked evaluators make that a detected kNumericDomain event;
// operator() stays unchecked for inner optimizer loops that already
// guarantee in-domain knobs.
#pragma once

#include <string>
#include <vector>

#include "tech/characterize.h"

namespace nanocache::tech {

/// The (Vth, Tox) rectangle a model was fitted over.
struct FitDomain {
  double vth_min_v = 0.0;
  double vth_max_v = 0.0;
  double tox_min_a = 0.0;
  double tox_max_a = 0.0;

  /// True when `knobs` lies inside the rectangle, with a small relative
  /// tolerance so boundary grid points never flap.
  bool contains(const DeviceKnobs& knobs) const;

  /// "Vth in [a, b] V, Tox in [c, d] A" for messages and reports.
  std::string describe() const;

  /// Smallest rectangle covering the samples.  Throws kConfig when empty,
  /// kNumericDomain when any knob is non-finite.
  static FitDomain from_samples(const std::vector<KnobSample>& samples);
};

/// Paper Eq. (1) fitted over (Vth, Tox) samples of total leakage power.
class FittedLeakageModel {
 public:
  /// Fit to characterization samples.  Throws kConfig on degenerate input
  /// and kNumericDomain when samples or the resulting coefficients are
  /// non-finite.
  static FittedLeakageModel fit(const std::vector<KnobSample>& samples);

  double operator()(const DeviceKnobs& knobs) const;

  double a0() const { return a0_; }
  double a1() const { return a1_; }
  double rate_vth() const { return rate_vth_; }  ///< a1 exponent (negative)
  double a2() const { return a2_; }
  double rate_tox() const { return rate_tox_; }  ///< a2 exponent (negative)
  double r2() const { return r2_; }              ///< goodness of fit
  const FitDomain& domain() const { return domain_; }

  /// Default-constructed model evaluates to zero everywhere; fit() is the
  /// meaningful constructor.
  FittedLeakageModel() = default;

 private:
  double a0_ = 0.0, a1_ = 0.0, rate_vth_ = 0.0, a2_ = 0.0, rate_tox_ = 0.0;
  double r2_ = 0.0;
  FitDomain domain_;
};

/// Paper Eq. (2) fitted over (Vth, Tox) samples of delay.
class FittedDelayModel {
 public:
  static FittedDelayModel fit(const std::vector<KnobSample>& samples);

  double operator()(const DeviceKnobs& knobs) const;

  double k0() const { return k0_; }
  double k1() const { return k1_; }
  double k3() const { return k3_; }  ///< Vth exponent (small, positive)
  double k2() const { return k2_; }  ///< linear Tox slope
  double r2() const { return r2_; }
  const FitDomain& domain() const { return domain_; }

  /// Default-constructed model evaluates to zero everywhere; fit() is the
  /// meaningful constructor.
  FittedDelayModel() = default;

 private:
  double k0_ = 0.0, k1_ = 0.0, k3_ = 0.0, k2_ = 0.0;
  double r2_ = 0.0;
  FitDomain domain_;
};

}  // namespace nanocache::tech
