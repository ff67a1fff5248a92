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
// Tables serialize to one segment per library fingerprint in the shared
// format (util/segment.h), keyed by table_key with the table's JSON as the
// value, at <dir>/nanocache-surrogate-<fingerprint>.jsonl:
//
//     {"nanocache_surrogate":2,"fingerprint":"<16 hex>","stamp":"..."}
//     {"key":"l1|16384|0|II","checksum":"<16 hex>","value":"{...}"}
//
// A version-1 segment (entries {"checksum","table"}) is rejected whole; its
// requests run exact until a precompute rewrites it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nanocache/responses.h"
#include "nanocache/types.h"
#include "util/segment.h"

namespace nanocache::surrogate {

/// One exact, feasible optimizer answer at one tabulated delay target.
struct OptimizeRung {
  double target_ps = 0.0;
  api::OptimizedCache result;
};

struct OptimizeTable {
  api::Level level = api::Level::kL1;
  std::uint64_t size_bytes = 0;
  int node_nm = 0;
  api::SchemeId scheme = api::SchemeId::kII;
  /// Strictly increasing in target_ps; every rung feasible.
  std::vector<OptimizeRung> rungs;
};

/// Parse a table's segment value back.  Throws nanocache::Error(kConfig) on
/// malformed input or any other table kind; the caller (segment loader)
/// treats that as a corrupt line and drops the table.
OptimizeTable parse_table_json(const std::string& text);

/// "level|size|node|scheme": a table's segment key and store index.
std::string table_key(api::Level level, std::uint64_t size_bytes, int node_nm,
                      api::SchemeId scheme);

/// Segment file naming and header, shared by reader and writer.
std::string segment_path(const std::string& dir,
                         const std::string& fingerprint);
segment::Header segment_header(const std::string& fingerprint,
                               const std::string& stamp = {});

/// Write a complete segment, creating `dir` as needed.  Throws Error(kIo)
/// when the directory or file cannot be written.
void write_segment(const std::string& dir, const std::string& fingerprint,
                   const std::string& stamp,
                   const std::vector<OptimizeTable>& optimizes);

}  // namespace nanocache::surrogate
