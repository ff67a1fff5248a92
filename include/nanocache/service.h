// nanocache::api::Service — the stable public facade over the library.
//
// A Service owns one technology/model library (cache models, fitted closed
// forms) and one exploration engine, configured once at construction, and
// answers the versioned requests of requests.h with the responses of
// responses.h.  All internal types stay behind the pimpl: consumers compile
// against include/nanocache/ alone and link the nanocache libraries.
//
//   auto service = nanocache::api::Service::create({});
//   auto eval = (*service)->evaluate({});              // 16 KB L1 defaults
//   auto batch = (*service)->run_batch(requests);      // deduped, parallel
//
// Batched evaluation: run_batch() deduplicates structurally identical
// requests (same payload, ids ignored), fans the unique ones out over the
// process-wide worker pool, shares sub-evaluations (model evaluations and
// scheme-optimizer results) through a content-keyed memoization cache, and
// returns responses in input order.  Responses are byte-identical (after
// serialization) at any thread count: a memo hit returns the same bits the
// miss path would have computed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nanocache/requests.h"
#include "nanocache/responses.h"
#include "nanocache/types.h"

namespace nanocache::core {
class Explorer;  // internal engine, reachable via the documented escape hatch
}  // namespace nanocache::core

namespace nanocache::api {

/// Construction-time configuration of a Service.  Zero/empty fields mean
/// "library default" (the paper's configuration).
struct ServiceConfig {
  /// Drive optimizers from the paper's fitted closed forms instead of the
  /// structural model (the CLI's --fitted).
  bool use_fitted_models = false;
  /// Treat fitted-model degradation as a hard error instead of falling
  /// back to the structural model (the CLI's --strict).
  bool strict_degradation = false;

  /// Default cache sizes (0 = 16 KB L1 / 1 MB L2).
  std::uint64_t l1_size_bytes = 0;
  std::uint64_t l2_size_bytes = 0;

  /// Knob grid override (empty = the paper's grid: Vth 0.20..0.50 V step
  /// 0.05, Tox 10..14 A step 1).  Values must be sorted, strictly
  /// increasing, and inside the paper's knob ranges (Vth 0.2-0.5 V, Tox
  /// 10-14 A); Service::create returns a kConfig error otherwise — values
  /// are never silently clamped.
  std::vector<double> grid_vth_v;
  std::vector<double> grid_tox_a;

  /// Directory for the persistent cross-run result cache (the CLI's
  /// --cache-dir / NANOCACHE_CACHE_DIR).  Empty disables persistence.
  /// Segments are content-addressed by a fingerprint over this
  /// configuration + schema/API version + search mode, so runs with
  /// different configurations never share entries; an unusable directory is
  /// a typed kIo error from Service::create.
  std::string cache_dir;

  /// Directory holding precomputed surrogate answer tables (the CLI's
  /// --surrogate-dir / NANOCACHE_SURROGATE_DIR, written by `nanocache_cli
  /// precompute --out`).  Empty disables the surrogate tier.  Tables are
  /// bound to the same configuration fingerprint as disk-cache segments, so
  /// a model/schema/search-mode change invalidates them; a missing
  /// directory or missing/corrupt table file degrades to exact serving
  /// (never a wrong answer), while a path that exists but is not a
  /// directory is a typed kIo error from Service::create.
  std::string surrogate_dir;

  /// Use the exhaustive reference search instead of the dominance-pruned
  /// engine (the CLI's --search exhaustive).  Results are byte-identical
  /// either way; the exhaustive path exists as the differential-testing
  /// oracle and costs ~an order of magnitude more combo evaluations.
  bool exhaustive_search = false;
};

/// Running counters of the service's sub-evaluation memoization cache.
struct MemoStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;
};

class Service {
 public:
  /// Validate `config` and build the service.  Returns a typed kConfig
  /// error for malformed configurations (out-of-range grid values, bad
  /// sizes); never clamps silently.
  static Outcome<std::shared_ptr<Service>> create(ServiceConfig config = {});

  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const ServiceConfig& config() const;

  /// The library fingerprint (16 hex digits) this configuration answers
  /// under — a hash over everything that can change an answer (model
  /// configuration, grid bit patterns, schema + API version, search mode).
  /// Disk-cache segments and surrogate table files are both addressed by
  /// it; `precompute` stamps it into the tables it writes.
  const std::string& configuration_fingerprint() const;

  // --- single-request entry points ---------------------------------------
  Outcome<EvalResponse> evaluate(const EvalRequest& request) const;
  Outcome<OptimizeResponse> optimize(const OptimizeRequest& request) const;
  Outcome<SweepResponse> sweep(const SweepRequest& request) const;
  Outcome<TupleMenuResponse> tuple_menu(const TupleMenuRequest& request) const;
  /// Discovery: what this build + configuration supports (schema versions,
  /// knob bounds, grid, schemes, thread/cache configuration).  Never
  /// disk-cached, and exempt from the thread-count byte-identity contract
  /// (it reports the resolved thread count).
  Outcome<CapabilitiesResponse> capabilities(
      const CapabilitiesRequest& request) const;

  /// Serve one wrapped request: validates schema_version, dispatches on
  /// kind, and folds success or failure into a Response (never throws).
  Response serve(const Request& request) const;

  // --- batched evaluation -------------------------------------------------
  /// Serve a request stream: dedup structurally identical requests, fan
  /// unique ones out over the worker pool, emit responses in input order.
  BatchResult run_batch(const std::vector<Request>& requests) const;

  /// Cumulative sub-evaluation memoization counters (across all calls).
  MemoStats memo_stats() const;

  /// Durability barrier for the persistent cross-run disk cache: fsync the
  /// segment file (appends are flushed per entry, but only into the page
  /// cache) and return its entry count.  No-op returning 0 when no
  /// cache_dir is configured.  The server's graceful shutdown calls this
  /// so results computed while serving survive to the next run.
  std::size_t flush_disk_cache() const;

  /// Escape hatch to the internal exploration engine for reporting code
  /// (CSV export, figure rendering).  NOT part of the stable API surface:
  /// the returned type lives in src/core and may change between versions.
  const core::Explorer& explorer() const;

 private:
  Service();
  /// serve() minus the observability wrapper (span + latency histogram).
  Response serve_impl(const Request& request) const;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nanocache::api
