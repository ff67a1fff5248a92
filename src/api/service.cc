#include "nanocache/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/batch_io.h"
#include "api/disk_cache.h"
#include "api/memo_cache.h"
#include "cachemodel/cache_model.h"
#include "core/explorer.h"
#include "opt/options.h"
#include "opt/schemes.h"
#include "opt/tuple_menu.h"
#include "surrogate/store.h"
#include "tech/params.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace_span.h"
#include "util/units.h"

namespace nanocache::api {

namespace {

ErrorCode to_error_code(ErrorCategory category) {
  switch (category) {
    case ErrorCategory::kConfig: return ErrorCode::kConfig;
    case ErrorCategory::kNumericDomain: return ErrorCode::kNumericDomain;
    case ErrorCategory::kIo: return ErrorCode::kIo;
    case ErrorCategory::kInfeasible: return ErrorCode::kInfeasible;
    case ErrorCategory::kInternal: return ErrorCode::kInternal;
  }
  return ErrorCode::kInternal;
}

opt::Scheme to_scheme(SchemeId id) {
  switch (id) {
    case SchemeId::kI: return opt::Scheme::kPerComponent;
    case SchemeId::kII: return opt::Scheme::kArrayPeriphery;
    case SchemeId::kIII: return opt::Scheme::kUniform;
  }
  return opt::Scheme::kArrayPeriphery;
}

/// Run `fn`, folding thrown nanocache::Errors (and anything else) into a
/// typed failure.  Every facade entry point funnels through here so no
/// internal exception type ever crosses the public boundary.  The failure
/// carries Error::message(), so no source location reaches a response.
template <typename Fn>
auto guarded(Fn&& fn) -> Outcome<decltype(fn())> {
  using R = decltype(fn());
  try {
    return Outcome<R>(fn());
  } catch (const Error& e) {
    return Outcome<R>::failure(to_error_code(e.category()),
                               std::string(e.message()));
  } catch (const std::exception& e) {
    return Outcome<R>::failure(ErrorCode::kInternal, e.what());
  }
}

/// Bit-pattern key of a double (16 lower-case hex digits): structural
/// identity, not decimal identity.  The spelling of a double in memo keys
/// and in the configuration fingerprint.
std::string key_double(double d) {
  char buf[17];
  const auto bits = std::bit_cast<std::uint64_t>(d);
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

/// The spec part of every tuple-menu memo key ("menumin|", "menu|" and
/// "menufront|" entries).  Requests with equal spec keys share memo
/// entries, so run_batch serves them in one task, in request order.
std::string menu_spec_key(int num_tox, int num_vth) {
  return std::to_string(num_tox) + "|" + std::to_string(num_vth);
}

/// Library fingerprint for the persistent disk cache: a hash over everything
/// that can change an answer — model selection, degradation policy, default
/// sizes, the exact grid bit patterns, schema/API version, and the search
/// mode (byte-identical by contract, but a fingerprint mismatch costs only a
/// cold segment while a collision could serve stale bits).
std::string service_fingerprint(const core::ExperimentConfig& config) {
  std::string s = "nanocache|schema=";
  s += std::to_string(kSchemaVersion);
  s += "|api=";
  s += std::to_string(kApiVersionMajor);
  s += '.';
  s += std::to_string(kApiVersionMinor);
  s += "|fitted=";
  s += config.use_fitted_models ? '1' : '0';
  s += "|strict=";
  s += config.degradation_policy == core::DegradationPolicy::kStrict ? '1'
                                                                     : '0';
  s += "|l1=";
  s += std::to_string(config.l1_size_bytes);
  s += "|l2=";
  s += std::to_string(config.l2_size_bytes);
  s += "|mode=";
  s += opt::search_mode_name(config.search_mode);
  s += "|vth=";
  for (const double v : config.grid.vth_values) {
    s += key_double(v);
    s += ',';
  }
  s += "|tox=";
  for (const double v : config.grid.tox_values) {
    s += key_double(v);
    s += ',';
  }
  return fnv1a64_hex(s);
}

/// Routing counters of the surrogate serving tier.  Registered eagerly on
/// the first optimize (or surrogate-pinned eval) request, whether or not a
/// store is loaded, so metrics snapshots expose the full `api.surrogate.*`
/// key set.
struct SurrogateCounters {
  metrics::Counter& hits;
  metrics::Counter& fallbacks;
  metrics::Counter& exact_pins;
  metrics::Counter& rejects;
};

SurrogateCounters& surrogate_counters() {
  static auto& registry = metrics::Registry::instance();
  static SurrogateCounters counters{
      registry.counter("api.surrogate.hits"),
      registry.counter("api.surrogate.fallbacks"),
      registry.counter("api.surrogate.exact_pins"),
      registry.counter("api.surrogate.rejects")};
  return counters;
}

/// Wire form of a per-component assignment.  `num_components` is 4 for the
/// paper's fixed organization and 6 for split-tag design-space variants
/// (kExtendedComponents keeps the fixed four at indices 0-3, so the default
/// yields exactly the v2 output).
std::vector<ComponentKnobs> assignment_out(
    const cachemodel::ComponentAssignment& assignment,
    std::size_t num_components = cachemodel::kNumComponents) {
  std::vector<ComponentKnobs> out;
  out.reserve(num_components);
  for (std::size_t i = 0; i < num_components; ++i) {
    const auto kind = cachemodel::kExtendedComponents[i];
    const auto& knobs = assignment.get(kind);
    ComponentKnobs c{std::string(cachemodel::component_name(kind)),
                     Knobs{knobs.vth_v, knobs.tox_a}};
    c.gated = assignment.gated(kind);
    out.push_back(std::move(c));
  }
  return out;
}

OptimizedCache to_optimized(
    const opt::SchemeResult& result,
    std::size_t num_components = cachemodel::kNumComponents) {
  OptimizedCache c;
  c.feasible = true;
  c.leakage_mw = units::watts_to_mw(result.leakage_w);
  c.access_time_ps = units::seconds_to_ps(result.access_time_s);
  c.dynamic_pj = units::joules_to_pj(result.dynamic_energy_j);
  c.assignment = assignment_out(result.assignment, num_components);
  return c;
}

OptimizedCache to_optimized(
    const opt::OptOutcome<opt::SchemeResult>& outcome,
    std::size_t num_components = cachemodel::kNumComponents) {
  if (!outcome) {
    OptimizedCache c;
    c.infeasible_reason = outcome.why().describe();
    return c;
  }
  return to_optimized(*outcome, num_components);
}

SizeRow to_size_row(const core::SizeSweepRow& row) {
  SizeRow out;
  out.size_bytes = row.size_bytes;
  out.feasible = row.feasible;
  out.infeasible_reason = row.infeasible_reason;
  out.miss_rate = row.miss_rate;
  if (row.feasible) {
    out.amat_ps = units::seconds_to_ps(row.amat_s);
    out.level_leakage_mw = units::watts_to_mw(row.level_leakage_w);
    out.total_leakage_mw = units::watts_to_mw(row.total_leakage_w);
    out.result = to_optimized(row.result);
  }
  return out;
}

MenuDesign to_menu_design(const opt::SystemDesignPoint& point,
                          double amat_target_ps) {
  MenuDesign d;
  d.amat_target_ps = amat_target_ps;
  d.feasible = true;
  d.amat_ps = units::seconds_to_ps(point.amat_s);
  d.energy_pj = units::joules_to_pj(point.energy_j);
  d.leakage_mw = units::watts_to_mw(point.leakage_w);
  d.tox_menu_a = point.tox_menu;
  d.vth_menu_v = point.vth_menu;
  d.l1_assignment = assignment_out(point.l1);
  d.l2_assignment = assignment_out(point.l2);
  return d;
}

/// A knob value must stay inside the paper's knob range [min, max] (the
/// fitted forms and the BPTM device model are calibrated for it).  An
/// out-of-range value is a typed kConfig error — never clamped.  Grid
/// overrides and eval knobs share this check, so both errors read alike.
void validate_knob_value(std::string_view what, double value, double min,
                         double max) {
  NC_REQUIRE(value >= min && value <= max,
             std::string(what) + " " + std::to_string(value) +
                 " outside the paper's knob range [" + std::to_string(min) +
                 ", " + std::to_string(max) + "]");
}

void validate_grid_axis(const char* axis, const std::vector<double>& values,
                        double min, double max) {
  NC_REQUIRE(!values.empty(),
             std::string(axis) + " grid override must be non-empty");
  for (std::size_t i = 0; i < values.size(); ++i) {
    validate_knob_value(std::string(axis) + " grid value", values[i], min,
                        max);
    NC_REQUIRE(i == 0 || values[i - 1] < values[i],
               std::string(axis) +
                   " grid values must be strictly increasing");
  }
}

// --- v3 design-space validation: typed kConfig errors, never clamps -------

void validate_organization(const OrganizationSpec& org) {
  NC_REQUIRE(org.associativity == 0 || org.associativity == -1 ||
                 org.associativity == 1 || org.associativity == 2 ||
                 org.associativity == 4 || org.associativity == 8,
             "organization.associativity must be 1, 2, 4, 8, or \"full\"");
  NC_REQUIRE(
      org.banks == 0 || (std::has_single_bit(org.banks) && org.banks <= 8),
      "organization.banks must be a power of two <= 8");
}

void validate_node(int node_nm) {
  // node_params throws the typed kConfig error (listing the supported
  // menu) for anything outside {90, 65, 45, 32, 22}.
  if (node_nm != 0) (void)tech::node_params(node_nm);
}

/// Eval knobs at the configured node (0) and at 65 nm must lie inside the
/// window `capabilities` advertises.  Other nodes are not checked: each has
/// its own calibrated window, which the wire does not advertise yet.
void validate_eval_knobs(const Knobs& knobs, int node_nm) {
  if (node_nm != 0 && node_nm != 65) return;
  const tech::KnobRange ranges{};
  validate_knob_value("knobs.vth_v", knobs.vth_v, ranges.vth_min_v,
                      ranges.vth_max_v);
  validate_knob_value("knobs.tox_a", knobs.tox_a, ranges.tox_min_a,
                      ranges.tox_max_a);
}

void validate_power_gating(const PowerGatingSpec& gating) {
  NC_REQUIRE(gating.perf_loss_budget >= 0.0 && gating.perf_loss_budget <= 1.0,
             "power_gating.perf_loss_budget must be in [0, 1]");
}

/// Associativity actually built when a request overrides the organization:
/// an explicit value wins; 0 inherits the fixed organizations' defaults
/// (2-way L1 / 8-way L2, see l1_organization / l2_organization).
int resolve_associativity(Level level, const OrganizationSpec& org) {
  if (org.associativity != 0) return org.associativity;
  return level == Level::kL2 ? 8 : 2;
}

}  // namespace

struct Service::Impl {
  ServiceConfig api_config;
  core::ExperimentConfig config;
  /// The library fingerprint of this configuration (names disk-cache and
  /// surrogate-table segments; see service_fingerprint above).
  std::string fingerprint;
  std::unique_ptr<core::Explorer> explorer;
  /// Precomputed answer tables (null when surrogate_dir is empty; empty —
  /// loaded() false — when the directory holds no matching segment).
  std::unique_ptr<surrogate::SurrogateStore> surrogate_store;
  /// Sub-evaluation memo.  Per-service, and a Service's model/grid/mode
  /// configuration is immutable, so keys only carry the per-request fields.
  mutable MemoCache memo;
  /// Persistent cross-run result cache (null when cache_dir is empty).
  std::unique_ptr<DiskCache> disk;

  /// Per-node Explorers for v3 `node_nm` overrides, one per supported
  /// node, built in create() (their models stay lazy) and never written
  /// after.  Node 0 is the main explorer (the configured default technology
  /// and grid).  Node explorers always use the node's own default grid —
  /// the paper's Vth ladder crossed with the node's oxide window — because
  /// a user grid override is calibrated against the default node's ranges.
  std::map<int, std::unique_ptr<core::Explorer>> node_explorers;

  /// Callers validate `node_nm` first (validate_node).
  const core::Explorer& explorer_for(int node_nm) const {
    if (node_nm == 0) return *explorer;
    return *node_explorers.at(node_nm);
  }

  /// The cache model a v3 request addresses: the fixed organization when
  /// `org` is all-default, else the split-tag design-space variant.
  const cachemodel::CacheModel& model_for(Level level,
                                          std::uint64_t size_bytes,
                                          const OrganizationSpec& org,
                                          int node_nm) const {
    const auto& ex = explorer_for(node_nm);
    if (org.is_default()) {
      return level == Level::kL2 ? ex.l2_model(size_bytes)
                                 : ex.l1_model(size_bytes);
    }
    return ex.variant_model(size_bytes, level == Level::kL2,
                            resolve_associativity(level, org),
                            org.banks == 0 ? 1 : org.banks);
  }

  /// Evaluator for a v3 request's model.  Design-space variants always run
  /// the structural model: the fitted closed forms are calibrated on the
  /// fixed four-component organization only.
  opt::ComponentEvaluator evaluator_for(const cachemodel::CacheModel& m,
                                        const OrganizationSpec& org,
                                        int node_nm) const {
    if (org.is_default()) return explorer_for(node_nm).evaluator(m);
    return opt::structural_evaluator(m);
  }

  /// v2 GridSpec semantics: size_bytes 0 means the service's configured
  /// default size for the addressed level.
  std::uint64_t resolve_size(Level level, std::uint64_t size_bytes) const {
    if (size_bytes != 0) return size_bytes;
    return level == Level::kL2 ? config.l2_size_bytes : config.l1_size_bytes;
  }

  /// v3 design-space memo-key suffix.  Appended unconditionally — all
  /// defaults append "|a0|b0|n0", so v1/v2 requests and their v3-normalized
  /// forms land on the same entry while any non-default knob gets its own.
  static void append_space_key(std::string& key, const OrganizationSpec& org,
                               int node_nm) {
    key += "|a";
    key += std::to_string(org.associativity);
    key += "|b";
    key += std::to_string(org.banks);
    key += "|n";
    key += std::to_string(node_nm);
  }

  /// Memoized uniform-knob cache evaluation ("eval|" entries).
  std::shared_ptr<const cachemodel::CacheMetrics> eval_memo(
      Level level, std::uint64_t size_bytes, const Knobs& knobs,
      const OrganizationSpec& org, int node_nm) const {
    std::string key = "eval|";
    key += level_name(level);
    key += '|';
    key += std::to_string(size_bytes);
    key += '|';
    key += key_double(knobs.vth_v);
    key += '|';
    key += key_double(knobs.tox_a);
    append_space_key(key, org, node_nm);
    return memo.get_or_compute<cachemodel::CacheMetrics>(key, [&] {
      const auto& m = model_for(level, size_bytes, org, node_nm);
      const auto eval = evaluator_for(m, org, node_nm);
      const tech::DeviceKnobs device{knobs.vth_v, knobs.tox_a};
      auto metrics = std::make_shared<cachemodel::CacheMetrics>();
      for (std::size_t i = 0; i < m.num_components(); ++i) {
        const auto kind = cachemodel::kExtendedComponents[i];
        const auto cm = eval(kind, device);
        metrics->per_component[static_cast<std::size_t>(kind)] = cm;
        metrics->access_time_s += cm.delay_s;
        metrics->leakage_w += cm.leakage_w;
        metrics->leakage_sub_w += cm.leakage_sub_w;
        metrics->leakage_gate_w += cm.leakage_gate_w;
        metrics->dynamic_energy_j += cm.dynamic_energy_j;
        metrics->dynamic_write_energy_j += cm.dynamic_write_energy_j;
        metrics->area_um2 += cm.area_um2;
      }
      return metrics;
    });
  }

  /// Memoized single-cache scheme optimization ("opt|" entries).  Shared
  /// between optimize requests and the scheme-comparison sweep, so a batch
  /// that asks for both computes each (cache, scheme, target) cell once.
  std::shared_ptr<const opt::OptOutcome<opt::SchemeResult>> optimize_memo(
      Level level, std::uint64_t size_bytes, SchemeId scheme, double delay_s,
      const OrganizationSpec& org, const PowerGatingSpec& gating,
      int node_nm) const {
    std::string key = "opt|";
    key += level_name(level);
    key += '|';
    key += std::to_string(size_bytes);
    key += '|';
    key += scheme_id_name(scheme);
    key += '|';
    key += key_double(delay_s);
    append_space_key(key, org, node_nm);
    key += "|g";
    key += gating.enabled ? '1' : '0';
    key += "|pb";
    key += key_double(gating.perf_loss_budget);
    return memo.get_or_compute<opt::OptOutcome<opt::SchemeResult>>(key, [&] {
      const auto& ex = explorer_for(node_nm);
      const auto& m = model_for(level, size_bytes, org, node_nm);
      const auto eval = evaluator_for(m, org, node_nm);
      opt::OptSpace space = org.is_default() ? opt::OptSpace::base()
                                             : opt::OptSpace::extended();
      space.gating.enabled = gating.enabled;
      // The performance-loss budget relaxes the delay constraint: sleep
      // states may slow the cache by up to that fraction of the target.
      const double effective_delay_s =
          gating.enabled ? delay_s * (1.0 + gating.perf_loss_budget)
                         : delay_s;
      return std::make_shared<const opt::OptOutcome<opt::SchemeResult>>(
          opt::optimize_single_cache(eval, ex.config().grid, to_scheme(scheme),
                                     effective_delay_s, config.search_mode,
                                     space));
    });
  }

  /// Memoized Section 5 size sweeps, keyed by the *resolved* AMAT target so
  /// an explicit `amat_ps` and the squeeze default it equals share a slot.
  std::shared_ptr<const std::vector<core::SizeSweepRow>> size_sweep_memo(
      SweepKind kind, SchemeId l2_scheme, double amat_s, int node_nm) const {
    std::string key = "sweep|";
    key += sweep_kind_name(kind);
    key += '|';
    key += scheme_id_name(l2_scheme);
    key += '|';
    key += key_double(amat_s);
    key += "|n";
    key += std::to_string(node_nm);
    return memo.get_or_compute<std::vector<core::SizeSweepRow>>(key, [&] {
      const auto& ex = explorer_for(node_nm);
      auto rows = kind == SweepKind::kL1Sizes
                      ? ex.l1_size_sweep(amat_s)
                      : ex.l2_size_sweep(to_scheme(l2_scheme), amat_s);
      return std::make_shared<const std::vector<core::SizeSweepRow>>(
          std::move(rows));
    });
  }

  /// The memoized pieces of one tuple-menu request.
  struct MenuPieces {
    std::shared_ptr<const double> min_amat_s;
    /// One per requested target, in request order.
    std::vector<std::shared_ptr<const std::optional<opt::SystemDesignPoint>>>
        best;
    /// Null unless a frontier was asked for.
    std::shared_ptr<const std::vector<opt::SystemDesignPoint>> frontier;
  };

  /// Memoized tuple-problem solutions ("menumin|", "menu|" and
  /// "menufront|" entries).  Each piece is looked up under its own key;
  /// if any misses, one solve() enumerates the spec's menus and every
  /// missing piece is published from it.  A target repeated within the
  /// request is looked up again after publishing, so it counts as a hit.
  MenuPieces menu_memo(const opt::TupleMenuSolver& solver,
                       const opt::MenuSpec& spec,
                       const std::vector<double>& targets_s,
                       std::optional<std::size_t> frontier_points) const {
    using Best = std::optional<opt::SystemDesignPoint>;
    using Front = std::vector<opt::SystemDesignPoint>;
    const std::string spec_key = menu_spec_key(spec.num_tox, spec.num_vth);
    const std::string min_key = "menumin|" + spec_key;
    const auto best_key = [&](double target_s) {
      return "menu|" + spec_key + "|" + key_double(target_s);
    };
    const std::string front_key =
        frontier_points
            ? "menufront|" + spec_key + "|" + std::to_string(*frontier_points)
            : std::string();

    MenuPieces out;
    out.min_amat_s = memo.find<double>(min_key);
    out.best.resize(targets_s.size());
    std::vector<double> missing;           // distinct targets to solve
    std::vector<std::size_t> missing_at;   // their request positions
    std::vector<std::size_t> repeats;      // positions repeating a miss
    for (std::size_t i = 0; i < targets_s.size(); ++i) {
      if (std::find(missing.begin(), missing.end(), targets_s[i]) !=
          missing.end()) {
        repeats.push_back(i);
        continue;
      }
      out.best[i] = memo.find<Best>(best_key(targets_s[i]));
      if (!out.best[i]) {
        missing.push_back(targets_s[i]);
        missing_at.push_back(i);
      }
    }
    if (frontier_points) out.frontier = memo.find<Front>(front_key);
    const bool solve_frontier = frontier_points && !out.frontier;

    if (!out.min_amat_s || !missing.empty() || solve_frontier) {
      auto solution = solver.solve(
          spec, missing, solve_frontier ? frontier_points : std::nullopt);
      if (!out.min_amat_s) {
        out.min_amat_s = memo.put(
            min_key, std::make_shared<const double>(solution.min_amat_s));
      }
      for (std::size_t m = 0; m < missing.size(); ++m) {
        out.best[missing_at[m]] = memo.put(
            best_key(missing[m]),
            std::make_shared<const Best>(std::move(solution.best[m])));
      }
      if (solve_frontier) {
        out.frontier = memo.put(
            front_key,
            std::make_shared<const Front>(std::move(solution.frontier)));
      }
    }
    for (const std::size_t i : repeats) {
      out.best[i] = memo.find<Best>(best_key(targets_s[i]));
    }
    return out;
  }
};

Service::Service() = default;
Service::~Service() = default;

Outcome<std::shared_ptr<Service>> Service::create(ServiceConfig config) {
  return guarded([&config] {
    // Surface a malformed NANOCACHE_THREADS here as a typed kConfig outcome
    // rather than mid-sweep: default_threads() validates the variable.
    (void)par::default_threads();

    const tech::KnobRange ranges{};  // the paper's knob ranges (bptm65)
    if (!config.grid_vth_v.empty()) {
      validate_grid_axis("Vth", config.grid_vth_v, ranges.vth_min_v,
                         ranges.vth_max_v);
    }
    if (!config.grid_tox_a.empty()) {
      validate_grid_axis("Tox", config.grid_tox_a, ranges.tox_min_a,
                         ranges.tox_max_a);
    }

    core::ExperimentConfig experiment;
    experiment.use_fitted_models = config.use_fitted_models;
    experiment.degradation_policy =
        config.strict_degradation ? core::DegradationPolicy::kStrict
                                  : core::DegradationPolicy::kFallbackToStructural;
    if (config.l1_size_bytes != 0) {
      experiment.l1_size_bytes = config.l1_size_bytes;
    }
    if (config.l2_size_bytes != 0) {
      experiment.l2_size_bytes = config.l2_size_bytes;
    }
    if (!config.grid_vth_v.empty()) {
      experiment.grid.vth_values = config.grid_vth_v;
    }
    if (!config.grid_tox_a.empty()) {
      experiment.grid.tox_values = config.grid_tox_a;
    }
    experiment.search_mode = config.exhaustive_search
                                 ? opt::SearchMode::kExhaustive
                                 : opt::SearchMode::kPruned;

    auto service = std::shared_ptr<Service>(new Service());
    service->impl_ = std::make_unique<Impl>();
    service->impl_->api_config = std::move(config);
    service->impl_->config = std::move(experiment);
    service->impl_->explorer =
        std::make_unique<core::Explorer>(service->impl_->config);
    for (const int node_nm : tech::supported_nodes()) {
      core::ExperimentConfig node_config = service->impl_->config;
      node_config.technology = tech::node_params(node_nm);
      node_config.grid = opt::KnobGrid::paper_default();
      node_config.grid.tox_values = tech::node_tox_grid(node_config.technology);
      // Mid-window defaults, mirroring the 65 nm (0.35 V, nominal-Tox) pair.
      node_config.default_knobs =
          tech::DeviceKnobs{0.35, node_config.technology.tox_nominal_a};
      service->impl_->node_explorers.emplace(
          node_nm, std::make_unique<core::Explorer>(std::move(node_config)));
    }
    service->impl_->fingerprint = service_fingerprint(service->impl_->config);
    if (!service->impl_->api_config.surrogate_dir.empty()) {
      service->impl_->surrogate_store = surrogate::SurrogateStore::open(
          service->impl_->api_config.surrogate_dir,
          service->impl_->fingerprint);
    }
    if (!service->impl_->api_config.cache_dir.empty()) {
      // With tables loaded, `auto` requests may persist surrogate answers;
      // fold the table content hash into the segment name so those entries
      // can never replay into an exact-only (or differently-tabled) run.
      std::string disk_fingerprint = service->impl_->fingerprint;
      const auto* store = service->impl_->surrogate_store.get();
      if (store != nullptr && store->loaded()) {
        disk_fingerprint = fnv1a64_hex(disk_fingerprint + "|surrogate=" +
                                       store->content_checksum());
      }
      service->impl_->disk = DiskCache::open(
          service->impl_->api_config.cache_dir, disk_fingerprint);
    }
    return service;
  });
}

const ServiceConfig& Service::config() const { return impl_->api_config; }

const std::string& Service::configuration_fingerprint() const {
  return impl_->fingerprint;
}

const core::Explorer& Service::explorer() const { return *impl_->explorer; }

MemoStats Service::memo_stats() const {
  const auto stats = impl_->memo.stats();
  return MemoStats{stats.hits, stats.misses, stats.entries};
}

std::size_t Service::flush_disk_cache() const {
  return impl_->disk ? impl_->disk->flush() : 0;
}

Outcome<CapabilitiesResponse> Service::capabilities(
    const CapabilitiesRequest&) const {
  return guarded([&] {
    CapabilitiesResponse c;
    for (int v = kMinSchemaVersion; v <= kSchemaVersion; ++v) {
      c.schema_versions.push_back(v);
    }
    c.api_version_major = kApiVersionMajor;
    c.api_version_minor = kApiVersionMinor;
    const tech::KnobRange ranges{};
    c.vth_min_v = ranges.vth_min_v;
    c.vth_max_v = ranges.vth_max_v;
    c.tox_min_a = ranges.tox_min_a;
    c.tox_max_a = ranges.tox_max_a;
    c.grid_vth_v = impl_->config.grid.vth_values;
    c.grid_tox_a = impl_->config.grid.tox_values;
    c.schemes = {"I", "II", "III"};
    c.sweeps = {"schemes", "l1_sizes", "l2_sizes"};
    c.l1_size_bytes = impl_->config.l1_size_bytes;
    c.l2_size_bytes = impl_->config.l2_size_bytes;
    c.threads = par::default_threads();
    c.search_mode = opt::search_mode_name(impl_->config.search_mode);
    c.fitted_models = impl_->config.use_fitted_models;
    c.disk_cache = impl_->disk != nullptr;
    c.cache_dir = impl_->api_config.cache_dir;
    c.organization_associativities = {1, 2, 4, 8};
    c.organization_fully_associative = true;
    c.organization_max_banks = 8;
    const opt::GatingSpec gating{};
    c.power_gating_supported = true;
    c.power_gating_sleep_factor = gating.sleep_leakage_factor;
    c.power_gating_wake_factor = gating.wake_delay_factor;
    c.power_gating_max_budget = 1.0;
    c.nodes_nm = tech::supported_nodes();
    const auto* store = impl_->surrogate_store.get();
    c.surrogate_loaded = store != nullptr && store->loaded();
    if (c.surrogate_loaded) {
      c.surrogate_optimize_tables =
          static_cast<int>(store->optimize_tables());
      c.surrogate_fingerprint = store->fingerprint();
      c.surrogate_stamp = store->stamp();
      c.surrogate_sizes_bytes = store->covered_sizes();
      c.surrogate_nodes_nm = store->covered_nodes();
      c.surrogate_schemes = store->covered_schemes();
      const auto worst = store->worst_bounds();
      c.surrogate_max_error_leakage_mw = worst.leakage_mw;
      c.surrogate_max_error_access_time_ps = worst.access_time_ps;
      c.surrogate_max_error_dynamic_pj = worst.dynamic_pj;
    }
    return c;
  });
}

Outcome<EvalResponse> Service::evaluate(const EvalRequest& request) const {
  return guarded([&] {
    validate_organization(request.organization);
    validate_node(request.node_nm);
    validate_eval_knobs(request.knobs, request.node_nm);
    const Level level = request.target.level;
    const std::uint64_t size =
        impl_->resolve_size(level, request.target.size_bytes);
    const auto metrics = impl_->eval_memo(level, size, request.knobs,
                                          request.organization,
                                          request.node_nm);
    const auto& model =
        impl_->model_for(level, size, request.organization, request.node_nm);
    EvalResponse r;
    r.organization = model.organization().describe();
    r.access_time_ps = units::seconds_to_ps(metrics->access_time_s);
    r.leakage_mw = units::watts_to_mw(metrics->leakage_w);
    r.leakage_sub_mw = units::watts_to_mw(metrics->leakage_sub_w);
    r.leakage_gate_mw = units::watts_to_mw(metrics->leakage_gate_w);
    r.dynamic_pj = units::joules_to_pj(metrics->dynamic_energy_j);
    r.area_um2 = metrics->area_um2;
    for (std::size_t i = 0; i < model.num_components(); ++i) {
      const auto kind = cachemodel::kExtendedComponents[i];
      const auto& cm = metrics->per_component[static_cast<std::size_t>(kind)];
      ComponentEval c;
      c.component = std::string(cachemodel::component_name(kind));
      c.knobs = request.knobs;
      c.delay_ps = units::seconds_to_ps(cm.delay_s);
      c.leakage_mw = units::watts_to_mw(cm.leakage_w);
      c.dynamic_pj = units::joules_to_pj(cm.dynamic_energy_j);
      r.components.push_back(std::move(c));
    }
    return r;
  });
}

Outcome<OptimizeResponse> Service::optimize(const OptimizeRequest& request) const {
  return guarded([&] {
    NC_REQUIRE(request.delay.target_ps > 0.0, "delay.target_ps must be positive");
    validate_organization(request.organization);
    validate_node(request.node_nm);
    validate_power_gating(request.power_gating);
    const auto outcome = impl_->optimize_memo(
        request.target.level,
        impl_->resolve_size(request.target.level, request.target.size_bytes),
        request.scheme, units::ps_to_seconds(request.delay.target_ps),
        request.organization, request.power_gating, request.node_nm);
    const std::size_t num_components = request.organization.is_default()
                                           ? cachemodel::kNumComponents
                                           : cachemodel::kMaxComponents;
    return OptimizeResponse{to_optimized(*outcome, num_components)};
  });
}

Outcome<SweepResponse> Service::sweep(const SweepRequest& request) const {
  return guarded([&] {
    validate_node(request.node_nm);
    const auto& explorer = impl_->explorer_for(request.node_nm);
    // Defaulted org/gating: sweeps run over the node's fixed organization.
    const OrganizationSpec org{};
    const PowerGatingSpec gating{};
    SweepResponse r;
    r.kind = request.kind;
    if (request.kind == SweepKind::kSchemes) {
      NC_REQUIRE(request.target.level == Level::kL1,
                 "the scheme-comparison sweep targets the L1 cache");
      const std::uint64_t size =
          impl_->resolve_size(Level::kL1, request.target.size_bytes);
      std::vector<double> targets_s;
      if (!request.delay.targets_ps.empty()) {
        for (const double ps : request.delay.targets_ps) {
          NC_REQUIRE(ps > 0.0, "delay.targets_ps must be positive");
          targets_s.push_back(units::ps_to_seconds(ps));
        }
      } else {
        targets_s = explorer.delay_ladder(size, request.ladder_steps);
      }
      // Computed here (not via Explorer::scheme_comparison) so the cells
      // share "opt|" memo entries with single optimize requests.
      metrics::TraceSpan span("api.sweep.schemes");
      for (const double target : targets_s) {
        SchemesRow& row = r.schemes.emplace_back();
        row.delay_target_ps = units::seconds_to_ps(target);
        row.scheme1 = to_optimized(*impl_->optimize_memo(
            Level::kL1, size, SchemeId::kI, target, org, gating,
            request.node_nm));
        row.scheme2 = to_optimized(*impl_->optimize_memo(
            Level::kL1, size, SchemeId::kII, target, org, gating,
            request.node_nm));
        row.scheme3 = to_optimized(*impl_->optimize_memo(
            Level::kL1, size, SchemeId::kIII, target, org, gating,
            request.node_nm));
      }
      return r;
    }

    NC_REQUIRE(request.delay.target_ps >= 0.0,
               "delay.target_ps must be non-negative");
    const double amat_s =
        request.delay.target_ps > 0.0
            ? units::ps_to_seconds(request.delay.target_ps)
            : (request.kind == SweepKind::kL1Sizes
                   ? explorer.l2_squeeze_target_s(1.25)
                   : explorer.l2_squeeze_target_s());
    r.amat_target_ps = units::seconds_to_ps(amat_s);
    const auto rows = impl_->size_sweep_memo(request.kind, request.l2_scheme,
                                             amat_s, request.node_nm);
    r.sizes.reserve(rows->size());
    for (const auto& row : *rows) r.sizes.push_back(to_size_row(row));
    return r;
  });
}

Outcome<TupleMenuResponse> Service::tuple_menu(
    const TupleMenuRequest& request) const {
  return guarded([&] {
    const auto& grid = impl_->config.grid;
    NC_REQUIRE(request.num_tox >= 1 &&
                   request.num_tox <= static_cast<int>(grid.tox_values.size()),
               "num_tox must be between 1 and the grid's Tox count");
    NC_REQUIRE(request.num_vth >= 1 &&
                   request.num_vth <= static_cast<int>(grid.vth_values.size()),
               "num_vth must be between 1 and the grid's Vth count");
    NC_REQUIRE(!request.include_frontier || request.frontier_max_points > 0,
               "frontier_max_points must be positive");

    metrics::TraceSpan span("api.tuple_menu");
    const opt::MenuSpec spec{request.num_tox, request.num_vth};
    const auto system = impl_->explorer->default_system();
    const opt::TupleMenuSolver solver(system, grid);

    TupleMenuResponse r;
    r.num_tox = spec.num_tox;
    r.num_vth = spec.num_vth;
    r.label = core::Explorer::menu_label(spec);

    std::vector<double> targets_s;
    if (!request.delay.targets_ps.empty()) {
      for (const double ps : request.delay.targets_ps) {
        NC_REQUIRE(ps > 0.0, "delay.targets_ps must be positive");
        targets_s.push_back(units::ps_to_seconds(ps));
      }
    } else {
      targets_s = impl_->config.amat_targets_s();
    }

    const auto pieces = impl_->menu_memo(
        solver, spec, targets_s,
        request.include_frontier
            ? std::optional<std::size_t>(request.frontier_max_points)
            : std::nullopt);
    r.min_amat_ps = units::seconds_to_ps(*pieces.min_amat_s);
    for (std::size_t i = 0; i < targets_s.size(); ++i) {
      const auto& best = *pieces.best[i];
      if (best) {
        r.targets.push_back(
            to_menu_design(*best, units::seconds_to_ps(targets_s[i])));
      } else {
        MenuDesign d;
        d.amat_target_ps = units::seconds_to_ps(targets_s[i]);
        r.targets.push_back(std::move(d));
      }
    }
    if (pieces.frontier) {
      for (const auto& point : *pieces.frontier) {
        r.frontier.push_back(to_menu_design(point, 0.0));
      }
    }
    return r;
  });
}

Response Service::serve(const Request& request) const {
  metrics::TraceSpan span("api.serve");
  const auto start = std::chrono::steady_clock::now();

  // Persistent-cache fast path.  Capabilities answers describe the live
  // process (thread count, cache state) and are never persisted; everything
  // else is keyed by its canonical request line, the same key the batch
  // dedup uses.  A request with no wire spelling (empty key) bypasses the
  // cache.
  Response response;
  bool served_from_disk = false;
  std::string disk_key;
  if (impl_->disk != nullptr && request.kind != RequestKind::kCapabilities) {
    disk_key = request_canonical_key(request);
  }
  const bool cacheable = !disk_key.empty();
  if (cacheable) {
    if (const auto stored = impl_->disk->lookup(disk_key)) {
      // Stored lines passed the segment checksum, but stay paranoid: any
      // parse failure falls through to recomputation — a corrupt cache may
      // cost time, never a wrong answer.
      if (auto parsed = parse_response_json(*stored)) {
        response = std::move(parsed.value());
        response.id = request.id;  // ids are per-call, stored stripped
        served_from_disk = true;
      }
    }
  }
  if (!served_from_disk) {
    response = serve_impl(request);
    // Persist only successful answers: error text may mention per-run
    // context and costs nothing to recompute.
    if (cacheable && response.ok) {
      Response stripped = response;
      stripped.id.clear();
      impl_->disk->store(disk_key, response_to_json(stripped));
    }
  }
  {
    auto& registry = metrics::Registry::instance();
    static auto& latency = registry.histogram("api.request.latency_us");
    static auto& requests = registry.counter("api.requests");
    static auto& errors = registry.counter("api.request_errors");
    latency.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    requests.add(1);
    if (!response.ok) errors.add(1);
  }
  return response;
}

Response Service::serve_impl(const Request& request) const {
  Response response;
  response.id = request.id;
  response.kind = request.kind;
  if (request.schema_version < kMinSchemaVersion ||
      request.schema_version > kSchemaVersion) {
    response.error = ErrorInfo{
        ErrorCode::kConfig,
        "unsupported schema_version " + std::to_string(request.schema_version) +
            " (this build speaks " + std::to_string(kMinSchemaVersion) + ".." +
            std::to_string(kSchemaVersion) + ")"};
    return response;
  }
  switch (request.kind) {
    case RequestKind::kEval: {
      // No table covers an eval: `exact` and `auto` both run the model,
      // and a surrogate pin is the typed reject of an uncovered request.
      const EvalRequest& e = request.eval;
      if (e.exactness == Exactness::kSurrogate) {
        surrogate_counters().rejects.add(1);
        response.error = ErrorInfo{
            ErrorCode::kConfig,
            "exactness 'surrogate' requested but no loaded table covers "
            "this eval request"};
        break;
      }
      auto out = evaluate(e);
      if (out) {
        response.ok = true;
        response.eval = std::move(out.value());
      } else {
        response.error = out.error();
      }
      break;
    }
    case RequestKind::kOptimize: {
      const OptimizeRequest& o = request.optimize;
      auto& counters = surrogate_counters();
      const auto* store = impl_->surrogate_store.get();
      const bool store_loaded = store != nullptr && store->loaded();
      if (o.exactness == Exactness::kExact) {
        if (store_loaded) counters.exact_pins.add(1);
      } else if (store_loaded && o.organization.is_default() &&
                 !o.power_gating.enabled && o.delay.target_ps > 0.0) {
        const Level level = o.target.level;
        const std::uint64_t size =
            impl_->resolve_size(level, o.target.size_bytes);
        if (auto hit = store->lookup_optimize(level, size, o.node_nm,
                                              o.scheme, o.delay.target_ps)) {
          counters.hits.add(1);
          response.ok = true;
          response.served_by = ServedBy::kSurrogate;
          response.max_error = hit->bounds;
          response.optimize = std::move(hit->response);
          break;
        }
      }
      if (o.exactness == Exactness::kSurrogate) {
        counters.rejects.add(1);
        response.error = ErrorInfo{
            ErrorCode::kConfig,
            "exactness 'surrogate' requested but no loaded table covers "
            "this optimize request"};
        break;
      }
      if (store_loaded && o.exactness != Exactness::kExact) {
        counters.fallbacks.add(1);
      }
      auto out = optimize(o);
      if (out) {
        response.ok = true;
        response.optimize = std::move(out.value());
      } else {
        response.error = out.error();
      }
      break;
    }
    case RequestKind::kSweep: {
      auto out = sweep(request.sweep);
      if (out) {
        response.ok = true;
        response.sweep = std::move(out.value());
      } else {
        response.error = out.error();
      }
      break;
    }
    case RequestKind::kTupleMenu: {
      auto out = tuple_menu(request.tuple_menu);
      if (out) {
        response.ok = true;
        response.tuple_menu = std::move(out.value());
      } else {
        response.error = out.error();
      }
      break;
    }
    case RequestKind::kCapabilities: {
      auto out = capabilities(request.capabilities);
      if (out) {
        response.ok = true;
        response.capabilities = std::move(out.value());
      } else {
        response.error = out.error();
      }
      break;
    }
  }
  return response;
}

BatchResult Service::run_batch(const std::vector<Request>& requests) const {
  metrics::TraceSpan span("api.batch");
  BatchResult batch;
  batch.stats.requests = requests.size();
  const auto memo_before = impl_->memo.stats();
  const std::size_t disk_hits_before = impl_->disk ? impl_->disk->hits() : 0;
  const std::size_t disk_misses_before =
      impl_->disk ? impl_->disk->misses() : 0;

  // Request-level dedup: requests with equal canonical lines (ids ignored)
  // collapse to one evaluation; one with no wire spelling (empty key) is
  // its own.  Unique requests keep first-occurrence order, so the fan-out
  // below is deterministic at any thread count.
  std::unordered_map<std::string, std::size_t> seen;
  std::vector<std::size_t> first_occurrence;
  std::vector<std::size_t> unique_of(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::string key = request_canonical_key(requests[i]);
    std::size_t u = first_occurrence.size();
    if (!key.empty()) u = seen.emplace(std::move(key), u).first->second;
    if (u == first_occurrence.size()) first_occurrence.push_back(i);
    unique_of[i] = u;
  }
  batch.stats.unique_requests = first_occurrence.size();
  batch.stats.request_hits = requests.size() - first_occurrence.size();

  auto& registry = metrics::Registry::instance();
  static auto& queue_depth = registry.gauge("api.batch.queue_depth");
  {
    static auto& batch_requests = registry.counter("api.batch.requests");
    static auto& unique_requests =
        registry.counter("api.batch.unique_requests");
    static auto& request_hits = registry.counter("api.batch.request_hits");
    static auto& peak_queue = registry.gauge("api.batch.peak_queue_depth");
    batch_requests.add(batch.stats.requests);
    unique_requests.add(batch.stats.unique_requests);
    request_hits.add(batch.stats.request_hits);
    queue_depth.set(static_cast<std::int64_t>(first_occurrence.size()));
    peak_queue.record_max(static_cast<std::int64_t>(first_occurrence.size()));
  }

  // Tuple menus are the stragglers (one 3x3 menu outweighs most other
  // requests).  The menus of one spec share memo entries (menu_spec_key),
  // so they form one task that serves them in request order: each then
  // finds exactly what the earlier ones published, and which menus get
  // solved is the same at any thread count.  A spec task holding a
  // frontier request runs first, on this thread, so the waves of its
  // unpruned DPs fan out across the whole pool.  Every other task goes to
  // one region, target-only menus claimed first; nested regions run
  // inline, so each of those runs whole on the worker that claimed it.
  // Every task writes only its unique slots u, so response assembly is
  // independent of the schedule.
  std::vector<std::vector<std::size_t>> spec_tasks;
  std::vector<bool> spec_has_frontier;
  std::unordered_map<std::string, std::size_t> spec_task_of;
  std::vector<std::size_t> rest;
  for (std::size_t u = 0; u < first_occurrence.size(); ++u) {
    const Request& request = requests[first_occurrence[u]];
    if (request.kind != RequestKind::kTupleMenu) {
      rest.push_back(u);
      continue;
    }
    const auto& menu = request.tuple_menu;
    const auto [it, added] = spec_task_of.emplace(
        menu_spec_key(menu.num_tox, menu.num_vth), spec_tasks.size());
    if (added) {
      spec_tasks.emplace_back();
      spec_has_frontier.push_back(false);
    }
    spec_tasks[it->second].push_back(u);
    if (menu.include_frontier) spec_has_frontier[it->second] = true;
  }

  std::vector<Response> unique_responses(first_occurrence.size());
  const auto serve_task = [&](const std::vector<std::size_t>& task) {
    for (const std::size_t u : task) {
      unique_responses[u] = serve(requests[first_occurrence[u]]);
    }
  };
  std::vector<std::vector<std::size_t>> tasks;
  for (std::size_t i = 0; i < spec_tasks.size(); ++i) {
    if (spec_has_frontier[i]) {
      serve_task(spec_tasks[i]);
    } else {
      tasks.push_back(std::move(spec_tasks[i]));
    }
  }
  for (const std::size_t u : rest) tasks.push_back({u});

  // More workers than cores just adds contention on the memo shards and
  // the metrics registry.  Capped here at the service layer so explicit
  // oversubscribed thread counts still exercise the pool machinery in unit
  // tests that call par::parallel_for directly.
  const int batch_threads =
      std::min(par::default_threads(), par::hardware_threads());
  par::parallel_for(
      tasks.size(), [&](std::size_t i) { serve_task(tasks[i]); },
      batch_threads);

  batch.responses.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Response r = unique_responses[unique_of[i]];
    r.id = requests[i].id;  // a copied response answers to the copy's id
    batch.responses[i] = std::move(r);
  }

  const auto memo_after = impl_->memo.stats();
  batch.stats.memo_hits = memo_after.hits - memo_before.hits;
  batch.stats.memo_misses = memo_after.misses - memo_before.misses;
  if (impl_->disk) {
    batch.stats.disk_hits = impl_->disk->hits() - disk_hits_before;
    batch.stats.disk_misses = impl_->disk->misses() - disk_misses_before;
  }
  queue_depth.set(0);
  return batch;
}

}  // namespace nanocache::api
