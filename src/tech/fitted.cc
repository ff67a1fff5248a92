#include "tech/fitted.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.h"
#include "util/math.h"
#include "util/numeric_guard.h"

namespace nanocache::tech {

namespace {

void split_samples(const std::vector<KnobSample>& samples,
                   std::vector<double>* vth, std::vector<double>* tox,
                   std::vector<double>* value) {
  NC_REQUIRE(samples.size() >= 6, "fitting needs >= 6 samples");
  vth->reserve(samples.size());
  tox->reserve(samples.size());
  value->reserve(samples.size());
  for (const auto& s : samples) {
    vth->push_back(num::ensure_finite(s.knobs.vth_v, "fit sample Vth"));
    tox->push_back(num::ensure_finite(s.knobs.tox_a, "fit sample Tox"));
    value->push_back(num::ensure_finite(s.value, "fit sample value"));
  }
}

}  // namespace

bool FitDomain::contains(const DeviceKnobs& knobs) const {
  // Relative slack ~1e-9 of the span: grid endpoints produced by linspace
  // arithmetic must always count as inside.
  const double vth_tol = 1e-9 * std::max(1.0, vth_max_v - vth_min_v);
  const double tox_tol = 1e-9 * std::max(1.0, tox_max_a - tox_min_a);
  return knobs.vth_v >= vth_min_v - vth_tol &&
         knobs.vth_v <= vth_max_v + vth_tol &&
         knobs.tox_a >= tox_min_a - tox_tol &&
         knobs.tox_a <= tox_max_a + tox_tol;
}

std::string FitDomain::describe() const {
  std::ostringstream os;
  os << "Vth in [" << vth_min_v << ", " << vth_max_v << "] V, Tox in ["
     << tox_min_a << ", " << tox_max_a << "] A";
  return os.str();
}

FitDomain FitDomain::from_samples(const std::vector<KnobSample>& samples) {
  NC_REQUIRE(!samples.empty(), "fit domain needs at least one sample");
  FitDomain d;
  d.vth_min_v = d.vth_max_v =
      num::ensure_finite(samples.front().knobs.vth_v, "fit sample Vth");
  d.tox_min_a = d.tox_max_a =
      num::ensure_finite(samples.front().knobs.tox_a, "fit sample Tox");
  for (const auto& s : samples) {
    num::ensure_finite(s.knobs.vth_v, "fit sample Vth");
    num::ensure_finite(s.knobs.tox_a, "fit sample Tox");
    d.vth_min_v = std::min(d.vth_min_v, s.knobs.vth_v);
    d.vth_max_v = std::max(d.vth_max_v, s.knobs.vth_v);
    d.tox_min_a = std::min(d.tox_min_a, s.knobs.tox_a);
    d.tox_max_a = std::max(d.tox_max_a, s.knobs.tox_a);
  }
  return d;
}

FittedLeakageModel FittedLeakageModel::fit(
    const std::vector<KnobSample>& samples) {
  std::vector<double> vth, tox, value;
  split_samples(samples, &vth, &tox, &value);
  // Subthreshold slope is tens of 1/V; gate slope is ~1 per Angstrom.
  const auto f = math::fit_separable_exponentials(
      vth, tox, value, /*r1*/ -60.0, -5.0, /*r2*/ -3.0, -0.2, /*steps*/ 80);
  FittedLeakageModel m;
  m.a0_ = num::ensure_finite(f.c0, "fitted leakage A0");
  m.a1_ = num::ensure_finite(f.c1, "fitted leakage A1");
  m.rate_vth_ = num::ensure_finite(f.r1, "fitted leakage Vth rate");
  m.a2_ = num::ensure_finite(f.c2, "fitted leakage A2");
  m.rate_tox_ = num::ensure_finite(f.r2, "fitted leakage Tox rate");
  m.r2_ = num::ensure_finite(f.r2_score, "fitted leakage R^2");
  m.domain_ = FitDomain::from_samples(samples);
  return m;
}

double FittedLeakageModel::operator()(const DeviceKnobs& knobs) const {
  return a0_ + a1_ * std::exp(rate_vth_ * knobs.vth_v) +
         a2_ * std::exp(rate_tox_ * knobs.tox_a);
}

FittedDelayModel FittedDelayModel::fit(const std::vector<KnobSample>& samples) {
  std::vector<double> vth, tox, value;
  split_samples(samples, &vth, &tox, &value);
  // Delay grows weakly-exponentially with Vth: small positive exponent.
  const auto f =
      math::fit_exp_linear(vth, tox, value, /*rate*/ 0.1, 8.0, /*steps*/ 240);
  FittedDelayModel m;
  m.k0_ = num::ensure_finite(f.c0, "fitted delay k0");
  m.k1_ = num::ensure_finite(f.c1, "fitted delay k1");
  m.k3_ = num::ensure_finite(f.rate, "fitted delay Vth rate");
  m.k2_ = num::ensure_finite(f.c2, "fitted delay Tox slope");
  m.r2_ = num::ensure_finite(f.r2_score, "fitted delay R^2");
  m.domain_ = FitDomain::from_samples(samples);
  return m;
}

double FittedDelayModel::operator()(const DeviceKnobs& knobs) const {
  return k0_ + k1_ * std::exp(k3_ * knobs.vth_v) + k2_ * knobs.tox_a;
}

}  // namespace nanocache::tech
