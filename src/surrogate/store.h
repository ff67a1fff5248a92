// SurrogateStore — the read side of the surrogate serving tier.
//
// A store loads the one table segment matching the service's library
// fingerprint at Service::create time and answers covered optimize
// requests in microseconds: a keyed table lookup plus a ladder binary
// search.  Everything a request needs beyond what a table covers — other
// sizes/nodes, explicit organizations, power gating, off-ladder targets —
// is simply "not covered": lookups return nullopt and the service falls
// back to the exact engine.  Evals are never covered.  Robustness mirrors
// DiskCache: a missing directory or segment and any corrupt line degrade
// coverage, never answers.
//
// Thread safety: a store is immutable after open(); concurrent lookups
// need no synchronization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nanocache/responses.h"
#include "nanocache/types.h"
#include "surrogate/tables.h"

namespace nanocache::surrogate {

/// A served optimize answer plus its proven error bounds (access time
/// and dynamic energy of the served design are exact, so those bounds are
/// always 0).
struct OptimizeAnswer {
  api::OptimizeResponse response;
  api::SurrogateErrorBounds bounds;
};

class SurrogateStore {
 public:
  /// Load the segment for `fingerprint` inside `dir`.  A missing directory
  /// or segment yields an empty store (exact fallback, not an error); a
  /// `dir` that exists but is not a directory throws Error(kIo).  Corrupt
  /// lines and fingerprint-mismatched segments are dropped and counted
  /// (api.surrogate.corrupt_lines / api.surrogate.segment_rejects).
  static std::unique_ptr<SurrogateStore> open(const std::string& dir,
                                              const std::string& fingerprint);

  /// No table covers an eval (the exact model is as fast as a table
  /// lookup), so this always answers "not covered".  It stays only because
  /// the benchmark's in-process replay still probes it.
  bool lookup_eval(api::Level, std::uint64_t, int, const api::Knobs&) const {
    return false;
  }

  std::optional<OptimizeAnswer> lookup_optimize(api::Level level,
                                                std::uint64_t size_bytes,
                                                int node_nm,
                                                api::SchemeId scheme,
                                                double target_ps) const;

  std::size_t optimize_tables() const { return optimizes_.size(); }
  bool loaded() const { return !optimizes_.empty(); }
  std::size_t corrupt_lines() const { return corrupt_lines_; }

  const std::string& fingerprint() const { return fingerprint_; }
  /// The segment's precompute stamp (caller-supplied, not wall-clock).
  const std::string& stamp() const { return stamp_; }
  /// Content hash over the accepted table lines; the service folds it into
  /// the disk-cache fingerprint so surrogate-served and exact-only runs
  /// never share cache entries.
  const std::string& content_checksum() const { return content_checksum_; }

  /// Coverage summary for the capabilities response.
  std::vector<std::uint64_t> covered_sizes() const;
  std::vector<int> covered_nodes() const;
  std::vector<std::string> covered_schemes() const;
  /// Worst proven per-answer bound across all loaded tables.
  api::SurrogateErrorBounds worst_bounds() const { return worst_bounds_; }

 private:
  SurrogateStore() = default;
  void load(const std::string& path);
  void index_tables();

  std::string fingerprint_;
  std::string stamp_;
  std::string content_checksum_;
  std::size_t corrupt_lines_ = 0;
  api::SurrogateErrorBounds worst_bounds_{};
  /// Keyed "level|size|node|scheme".
  std::map<std::string, OptimizeTable> optimizes_;
};

}  // namespace nanocache::surrogate
