// Fault-injection harness: a registry of deliberately-broken inputs for
// every public entry point (model fitting, cache construction, trace I/O,
// optimizers, experiment configs) plus a driver that checks each fault
// dies with a correctly-categorized nanocache::Error — no crash, no hang,
// no silent NaN, no miscategorized exception.
//
// The registry is a plain data structure so the GoogleTest suite, the
// sanitizer presets and any future fuzz driver can share it; the
// mutation corpus feeds the deterministic parser fuzz tests.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/error.h"

namespace nanocache::testing {

/// One injected fault: a closure poking a broken input into a public API,
/// and the error category the library contract promises for it.
struct FaultCase {
  std::string name;              ///< unique slug, e.g. "trace-bad-hex"
  ErrorCategory expected;        ///< category the Error must carry
  std::function<void()> inject;  ///< must throw nanocache::Error(expected)
};

/// What actually happened when a fault ran.
struct FaultOutcome {
  std::string name;
  bool ok = false;           ///< threw nanocache::Error with the right category
  std::string detail;        ///< what() on success; diagnosis on failure
  ErrorCategory expected{};  ///< from the case
  ErrorCategory actual{};    ///< only meaningful when a nanocache::Error threw
};

/// Run one fault, classifying the outcome (never lets the exception
/// escape).
FaultOutcome run_fault(const FaultCase& fault);

/// Run every fault in order.
std::vector<FaultOutcome> run_all(const std::vector<FaultCase>& cases);

/// The standard registry covering the library surface (>= 30 faults).
std::vector<FaultCase> build_standard_faults();

/// One deterministic mutant of a byte string, for parser fuzz tests.
struct Mutant {
  std::string name;   ///< e.g. "truncate@128", "flip@77", "splice@3"
  std::string bytes;
};

/// A deterministic mutation corpus of `bytes` (typically a file a parser
/// reads): the input cut short at every `stride`-th byte, one bit flipped
/// at every `stride`-th byte (offset half a stride from the cuts), and per
/// adjacent pair of lines the first half of one spliced onto the second
/// half of the next.  Same input, same corpus: failures reproduce.
std::vector<Mutant> mutation_corpus(const std::string& bytes,
                                    std::size_t stride);

}  // namespace nanocache::testing
