#include "api/surrogate_precompute.h"

#include <algorithm>
#include <utility>

#include "opt/options.h"
#include "surrogate/tables.h"
#include "tech/params.h"
#include "util/error.h"

namespace nanocache::api {

namespace {

ErrorCategory to_category(ErrorCode code) {
  switch (code) {
    case ErrorCode::kConfig: return ErrorCategory::kConfig;
    case ErrorCode::kNumericDomain: return ErrorCategory::kNumericDomain;
    case ErrorCode::kIo: return ErrorCategory::kIo;
    case ErrorCode::kInfeasible: return ErrorCategory::kInfeasible;
    case ErrorCode::kInternal: return ErrorCategory::kInternal;
  }
  return ErrorCategory::kInternal;
}

/// Re-raise a failed facade outcome inside the precompute (which reports
/// through exceptions, like the rest of the non-facade code).
template <typename T>
const T& require_ok(const Outcome<T>& out) {
  if (!out) throw Error(to_category(out.error().code), out.error().message);
  return out.value();
}

/// The knob grid a node's requests run against: the service's configured
/// grid for the default node, the paper's Vth ladder crossed with the
/// node's oxide window otherwise (mirroring the service's node explorers).
std::pair<std::vector<double>, std::vector<double>> node_grid(
    const Service& service, int node_nm) {
  if (node_nm == 0) {
    const auto caps = require_ok(service.capabilities({}));
    return {caps.grid_vth_v, caps.grid_tox_a};
  }
  const auto grid = opt::KnobGrid::paper_default();
  return {grid.vth_values, tech::node_tox_grid(tech::node_params(node_nm))};
}

struct ExactEngine {
  const Service& service;
  std::size_t evals = 0;
  std::size_t optimizes = 0;

  EvalResponse eval(Level level, std::uint64_t size_bytes, int node_nm,
                    double vth_v, double tox_a) {
    EvalRequest request;
    request.target = GridSpec{level, size_bytes};
    request.knobs = Knobs{vth_v, tox_a};
    request.node_nm = node_nm;
    request.exactness = Exactness::kExact;
    ++evals;
    return require_ok(service.evaluate(request));
  }

  Outcome<OptimizeResponse> optimize(Level level, std::uint64_t size_bytes,
                                     int node_nm, SchemeId scheme,
                                     double target_ps) {
    OptimizeRequest request;
    request.target = GridSpec{level, size_bytes};
    request.scheme = scheme;
    request.delay = DelayConstraint{target_ps, {}};
    request.node_nm = node_nm;
    request.exactness = Exactness::kExact;
    ++optimizes;
    return service.optimize(request);
  }
};

std::vector<surrogate::OptimizeTable> build_optimize_tables(
    ExactEngine& engine, Level level, std::uint64_t size_bytes, int node_nm,
    const std::vector<double>& vth_v, const std::vector<double>& tox_a,
    int target_steps) {
  // The reachable access-time window: the grid's fastest corner (min Vth,
  // min Tox) through the slowest, padded 5% so slack targets stay covered.
  const double t_fast =
      engine.eval(level, size_bytes, node_nm, vth_v.front(), tox_a.front())
          .access_time_ps;
  const double t_slow =
      engine.eval(level, size_bytes, node_nm, vth_v.back(), tox_a.back())
          .access_time_ps;
  const double lo = t_fast;
  const double hi = 1.05 * std::max(t_slow, t_fast);

  std::vector<surrogate::OptimizeTable> tables;
  for (const SchemeId scheme : {SchemeId::kI, SchemeId::kII, SchemeId::kIII}) {
    surrogate::OptimizeTable table;
    table.level = level;
    table.size_bytes = size_bytes;
    table.node_nm = node_nm;
    table.scheme = scheme;
    for (int i = 0; i < target_steps; ++i) {
      const double target_ps =
          lo + (hi - lo) * static_cast<double>(i) /
                   static_cast<double>(target_steps - 1);
      const auto out =
          engine.optimize(level, size_bytes, node_nm, scheme, target_ps);
      // Infeasible rungs (targets below what the scheme can reach) simply
      // shrink the ladder's coverage; they are not precompute failures.
      if (!out || !out.value().result.feasible) continue;
      const auto& result = out.value().result;
      surrogate::OptimizeRung rung;
      rung.target_ps = target_ps;
      rung.leakage_mw = result.leakage_mw;
      rung.access_time_ps = result.access_time_ps;
      rung.dynamic_pj = result.dynamic_pj;
      rung.assignment = result.assignment;
      table.rungs.push_back(std::move(rung));
    }
    // A one-rung ladder covers a single point; not worth a table.
    if (table.rungs.size() >= 2) tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace

PrecomputeSummary precompute_surrogate(const Service& service,
                                       const std::string& out_dir,
                                       const PrecomputeOptions& options) {
  NC_REQUIRE(!out_dir.empty(), "precompute output directory must be set");
  NC_REQUIRE(options.target_steps >= 2,
             "target_steps must be at least 2 (a ladder needs two rungs)");
  NC_REQUIRE(!options.nodes.empty(), "nodes must name at least one node");

  std::vector<std::uint64_t> l1_sizes = options.l1_sizes;
  std::vector<std::uint64_t> l2_sizes = options.l2_sizes;
  const auto caps = require_ok(service.capabilities({}));
  if (l1_sizes.empty()) l1_sizes.push_back(caps.l1_size_bytes);
  if (l2_sizes.empty()) l2_sizes.push_back(caps.l2_size_bytes);

  ExactEngine engine{service};
  std::vector<surrogate::OptimizeTable> optimizes;
  for (const int node : options.nodes) {
    const auto [vth, tox] = node_grid(service, node);
    const auto tabulate = [&](Level level, std::uint64_t size_bytes) {
      auto ladders = build_optimize_tables(engine, level, size_bytes, node,
                                           vth, tox, options.target_steps);
      for (auto& t : ladders) optimizes.push_back(std::move(t));
    };
    for (const std::uint64_t size : l1_sizes) tabulate(Level::kL1, size);
    for (const std::uint64_t size : l2_sizes) tabulate(Level::kL2, size);
  }

  const std::string& fingerprint = service.configuration_fingerprint();
  surrogate::write_segment(out_dir, fingerprint, options.stamp, optimizes);

  PrecomputeSummary summary;
  summary.fingerprint = fingerprint;
  summary.path = surrogate::segment_path(out_dir, fingerprint);
  summary.optimize_tables = optimizes.size();
  summary.exact_evals = engine.evals;
  summary.exact_optimizes = engine.optimizes;
  return summary;
}

}  // namespace nanocache::api
