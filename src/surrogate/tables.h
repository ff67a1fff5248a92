// Precomputed answer tables of the surrogate serving tier.
//
// One table shape covers the expensive request kind, single-cache
// optimization:
//
//  * OptimizeTable — a ladder of exact optimizer answers over increasing
//    delay targets for one (level, size, node, scheme).  Serving snaps a
//    target T to the largest tabulated rung t_i <= T and returns that
//    rung's exact design: the design is feasible for T (achieved <= t_i <=
//    T) and its leakage over-estimates the true optimum by at most
//    leakage(t_i) - leakage(t_{i+1}), because the optimum at T is bracketed
//    by the two rungs' optima (feasible sets nest as the constraint
//    relaxes).  The bound is rigorous, not sampled; access time and dynamic
//    energy of the served design are exact (bound 0).
//
// Evals are never tabulated: the exact model answers one in about a
// microsecond, so an interpolated table buys nothing and could only add
// error.
//
// Tables serialize to one JSONL segment per library fingerprint,
// mirroring the DiskCache layout (header + checksummed lines, corruption
// drops lines instead of ever serving a wrong answer):
//
//   <dir>/nanocache-surrogate-<fingerprint>.jsonl
//     {"nanocache_surrogate":1,"fingerprint":"<16 hex>","stamp":"..."}
//     {"checksum":"<16 hex>","table":"{...}"}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nanocache/types.h"

namespace nanocache::surrogate {

/// One exact optimizer answer at one tabulated delay target.
struct OptimizeRung {
  double target_ps = 0.0;
  double leakage_mw = 0.0;
  double access_time_ps = 0.0;
  double dynamic_pj = 0.0;
  std::vector<api::ComponentKnobs> assignment;
};

struct OptimizeTable {
  api::Level level = api::Level::kL1;
  std::uint64_t size_bytes = 0;
  int node_nm = 0;
  api::SchemeId scheme = api::SchemeId::kII;
  /// Strictly increasing in target_ps; every rung feasible.
  std::vector<OptimizeRung> rungs;
};

/// Serialize one table to its canonical single-line JSON (the bytes the
/// segment checksum covers).
std::string optimize_table_json(const OptimizeTable& table);

/// Parse a canonical table line back.  Throws nanocache::Error(kConfig) on
/// malformed input or any other table kind; the caller (segment loader)
/// treats that as a corrupt line and drops the table.
OptimizeTable parse_table_json(const std::string& text);

/// Segment file naming, shared by reader and writer.
std::string segment_path(const std::string& dir,
                         const std::string& fingerprint);

/// Write a complete segment (header + one checksummed line per table),
/// creating `dir` as needed.  Throws Error(kIo) when the directory or file
/// cannot be written.
void write_segment(const std::string& dir, const std::string& fingerprint,
                   const std::string& stamp,
                   const std::vector<OptimizeTable>& optimizes);

}  // namespace nanocache::surrogate
