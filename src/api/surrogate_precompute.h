// Offline precompute step of the surrogate serving tier.
//
// Drives the exact optimizer of an existing Service over a delay-target
// ladder per (level, size, node, scheme) and writes the resulting answer
// tables to one segment keyed by the service's library fingerprint — the
// same fingerprint a later Service::create computes, so a serving process
// picks the tables up automatically when pointed at the output directory
// via ServiceConfig::surrogate_dir.
//
// Nothing is calibrated: a ladder's adjacent-rung bound is rigorous by
// feasible-set nesting (see surrogate/tables.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nanocache/service.h"

namespace nanocache::api {

struct PrecomputeOptions {
  /// Cache sizes to tabulate per level.  Empty = the service's configured
  /// default size for that level.
  std::vector<std::uint64_t> l1_sizes;
  std::vector<std::uint64_t> l2_sizes;
  /// Technology nodes to tabulate (0 = the configured default).
  std::vector<int> nodes{0};
  /// Rungs per optimize ladder (per level, size, node, scheme).
  int target_steps = 25;
  /// Free-form provenance stamp written into the segment header (never
  /// wall-clock derived here: byte-identical reruns stay byte-identical).
  std::string stamp;
};

struct PrecomputeSummary {
  std::string fingerprint;    ///< segment key (= the service's fingerprint)
  std::string path;           ///< segment file written
  std::size_t optimize_tables = 0;
  std::size_t exact_evals = 0;      ///< exact evals spent on ladder windows
  std::size_t exact_optimizes = 0;  ///< exact optimizes spent on rungs
};

/// Precompute tables for `service` and write them under `out_dir`.  Throws
/// nanocache::Error (kConfig for bad options, kIo for unwritable output);
/// exact-engine failures on a ladder's window endpoints propagate as-is.
PrecomputeSummary precompute_surrogate(const Service& service,
                                       const std::string& out_dir,
                                       const PrecomputeOptions& options);

}  // namespace nanocache::api
