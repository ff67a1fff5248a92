// Numeric domain guards for model-evaluation boundaries.
//
// The fitted closed forms and the structural model are algebra over exp()
// and division; fed a NaN, an infinity or an out-of-domain knob they
// silently produce garbage that poisons every downstream Pareto front.
// These helpers turn that into a detected, categorized event: each check
// throws nanocache::Error with ErrorCategory::kNumericDomain and names the
// offending quantity, so a NaN can never cross a guarded boundary
// unnoticed.  All helpers return the validated value so they compose
// inline: `return ensure_finite(model(k), "fitted leakage");`.
#pragma once

#include <cmath>
#include <string>

#include "util/error.h"

namespace nanocache::num {

[[noreturn]] inline void throw_domain(const std::string& what,
                                      const char* context, double value) {
  throw Error(ErrorCategory::kNumericDomain,
              what + " in " + context + " (value " + std::to_string(value) +
                  ")");
}

/// Value must be neither NaN nor infinite.
inline double ensure_finite(double value, const char* context) {
  if (!std::isfinite(value)) throw_domain("non-finite value", context, value);
  return value;
}

/// Value must be finite and strictly positive.
inline double ensure_positive(double value, const char* context) {
  ensure_finite(value, context);
  if (!(value > 0.0)) throw_domain("non-positive value", context, value);
  return value;
}

}  // namespace nanocache::num
