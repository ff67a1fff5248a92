#include "api/batch_io.h"

#include <bit>
#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/json.h"
#include "util/metrics.h"

namespace nanocache::api {

namespace {

using json::ValuePtr;

// --- parsing helpers --------------------------------------------------------

Level parse_level(const std::string& s) {
  if (s == "l1") return Level::kL1;
  if (s == "l2") return Level::kL2;
  throw Error(ErrorCategory::kConfig, "unknown level '" + s + "'");
}

SchemeId parse_scheme(const std::string& s) {
  if (s == "I") return SchemeId::kI;
  if (s == "II") return SchemeId::kII;
  if (s == "III") return SchemeId::kIII;
  throw Error(ErrorCategory::kConfig, "unknown scheme '" + s + "'");
}

RequestKind parse_kind(const std::string& s) {
  if (s == "eval") return RequestKind::kEval;
  if (s == "optimize") return RequestKind::kOptimize;
  if (s == "sweep") return RequestKind::kSweep;
  if (s == "tuple_menu") return RequestKind::kTupleMenu;
  if (s == "capabilities") return RequestKind::kCapabilities;
  throw Error(ErrorCategory::kConfig, "unknown request kind '" + s + "'");
}

Exactness parse_exactness(const std::string& s) {
  if (s == "auto") return Exactness::kAuto;
  if (s == "exact") return Exactness::kExact;
  if (s == "surrogate") return Exactness::kSurrogate;
  throw Error(ErrorCategory::kConfig, "unknown exactness '" + s + "'");
}

ErrorCode parse_error_code(const std::string& s) {
  if (s == "config") return ErrorCode::kConfig;
  if (s == "numeric-domain") return ErrorCode::kNumericDomain;
  if (s == "io") return ErrorCode::kIo;
  if (s == "infeasible") return ErrorCode::kInfeasible;
  if (s == "internal") return ErrorCode::kInternal;
  throw Error(ErrorCategory::kConfig, "unknown error code '" + s + "'");
}

SweepKind parse_sweep_kind(const std::string& s) {
  if (s == "schemes") return SweepKind::kSchemes;
  if (s == "l1_sizes") return SweepKind::kL1Sizes;
  if (s == "l2_sizes") return SweepKind::kL2Sizes;
  throw Error(ErrorCategory::kConfig, "unknown sweep kind '" + s + "'");
}

double get_double(const ValuePtr& obj, const char* key, double fallback) {
  const auto v = obj->get(key);
  return v ? v->as_double() : fallback;
}

std::uint64_t get_uint(const ValuePtr& obj, const char* key,
                       std::uint64_t fallback) {
  const auto v = obj->get(key);
  return v ? v->as_uint() : fallback;
}

int get_int(const ValuePtr& obj, const char* key, int fallback) {
  const auto v = obj->get(key);
  return v ? static_cast<int>(v->as_int()) : fallback;
}

bool get_bool(const ValuePtr& obj, const char* key, bool fallback) {
  const auto v = obj->get(key);
  return v ? v->as_bool() : fallback;
}

std::vector<double> get_double_array(const ValuePtr& obj, const char* key) {
  std::vector<double> out;
  const auto v = obj->get(key);
  if (!v) return out;
  for (const auto& item : v->as_array()) out.push_back(item->as_double());
  return out;
}

/// v2 nested "target" object: {"level": "l1"|"l2", "size_bytes": N}.
void parse_grid_spec(const ValuePtr& root, GridSpec& g) {
  const auto t = root->get("target");
  if (!t) return;
  NC_REQUIRE(t->is_object(), "'target' must be an object");
  if (const auto level = t->get("level")) {
    g.level = parse_level(level->as_string());
  }
  g.size_bytes = get_uint(t, "size_bytes", g.size_bytes);
}

/// v2 nested "delay" object: {"target_ps": X, "targets_ps": [...]}.
void parse_delay(const ValuePtr& root, DelayConstraint& d) {
  const auto v = root->get("delay");
  if (!v) return;
  NC_REQUIRE(v->is_object(), "'delay' must be an object");
  d.target_ps = get_double(v, "target_ps", d.target_ps);
  if (v->get("targets_ps")) d.targets_ps = get_double_array(v, "targets_ps");
}

/// v3 nested "organization" object:
/// {"associativity": 1|2|4|8|"full", "banks": N}.
void parse_organization(const ValuePtr& root, OrganizationSpec& org) {
  const auto v = root->get("organization");
  if (!v) return;
  NC_REQUIRE(v->is_object(), "'organization' must be an object");
  if (const auto assoc = v->get("associativity")) {
    if (assoc->is_string()) {
      NC_REQUIRE(assoc->as_string() == "full",
                 "organization.associativity must be 1, 2, 4, 8, or \"full\"");
      org.associativity = -1;
    } else {
      org.associativity = static_cast<int>(assoc->as_int());
    }
  }
  org.banks = static_cast<std::uint32_t>(get_uint(v, "banks", org.banks));
  // An explicit single bank IS the default organization: normalize at parse
  // so both spellings share one canonical key (and one cache entry).
  if (org.banks == 1) org.banks = 0;
}

/// v3 nested "power_gating" object: {"enabled": B, "perf_loss_budget": X}.
void parse_power_gating(const ValuePtr& root, PowerGatingSpec& g) {
  const auto v = root->get("power_gating");
  if (!v) return;
  NC_REQUIRE(v->is_object(), "'power_gating' must be an object");
  g.enabled = get_bool(v, "enabled", g.enabled);
  g.perf_loss_budget = get_double(v, "perf_loss_budget", g.perf_loss_budget);
}

/// v1's flat spellings, each with the v2 nested field it normalizes to.
/// Fields every version spells alike (scheme, sweep, num_tox, ...) need no
/// entry.
struct V1Spelling {
  RequestKind kind;
  const char* flat_key;
  const char* object;  ///< v2 nested object: "target", "knobs" or "delay"
  const char* key;     ///< field inside that object
};

constexpr V1Spelling kV1Spellings[] = {
    {RequestKind::kEval, "level", "target", "level"},
    {RequestKind::kEval, "size_bytes", "target", "size_bytes"},
    {RequestKind::kEval, "vth_v", "knobs", "vth_v"},
    {RequestKind::kEval, "tox_a", "knobs", "tox_a"},
    {RequestKind::kOptimize, "level", "target", "level"},
    {RequestKind::kOptimize, "size_bytes", "target", "size_bytes"},
    {RequestKind::kOptimize, "delay_ps", "delay", "target_ps"},
    {RequestKind::kSweep, "cache_size_bytes", "target", "size_bytes"},
    {RequestKind::kSweep, "amat_ps", "delay", "target_ps"},
    {RequestKind::kSweep, "delay_targets_ps", "delay", "targets_ps"},
    {RequestKind::kTupleMenu, "amat_targets_ps", "delay", "targets_ps"},
};

/// A v1 request in its v2 shape: the nested objects are rebuilt from the
/// flat spellings alone (v1 never read nested objects); every other field
/// carries over as is.
ValuePtr v1_as_v2(const ValuePtr& root, RequestKind kind) {
  json::Value::Object fields = root->as_object();
  for (const char* name : {"target", "knobs", "delay"}) fields.erase(name);
  std::map<std::string, json::Value::Object> nested;
  for (const auto& s : kV1Spellings) {
    if (s.kind != kind) continue;
    if (auto value = root->get(s.flat_key)) {
      nested[s.object][s.key] = std::move(value);
    }
  }
  for (auto& [name, object] : nested) {
    fields[name] = json::Value::make_object(std::move(object));
  }
  return json::Value::make_object(std::move(fields));
}

Request request_from_value(const ValuePtr& root) {
  NC_REQUIRE(root && root->is_object(), "request must be a JSON object");
  Request r;
  const auto version = root->get("schema_version");
  NC_REQUIRE(version != nullptr, "request is missing schema_version");
  const auto v = static_cast<int>(version->as_int());
  NC_REQUIRE(v >= kMinSchemaVersion && v <= kSchemaVersion,
             "unsupported schema_version " + std::to_string(v) +
                 " (this build speaks " + std::to_string(kMinSchemaVersion) +
                 ".." + std::to_string(kSchemaVersion) + ")");
  r.schema_version = kSchemaVersion;
  if (const auto id = root->get("id")) r.id = id->as_string();
  const auto kind = root->get("kind");
  NC_REQUIRE(kind != nullptr, "request is missing kind");
  r.kind = parse_kind(kind->as_string());
  // One reader for every version: v1 lines are first rewritten into the v2
  // shape, v3 design-space fields are read only from v3+ requests, and the
  // v4 exactness selector only from v4 requests (absent fields keep their
  // paper-default values).  The request carries the current schema version
  // from here on.
  const ValuePtr body = v == 1 ? v1_as_v2(root, r.kind) : root;
  const bool v3 = v >= 3;
  const bool v4 = v >= 4;
  switch (r.kind) {
    case RequestKind::kEval: {
      auto& e = r.eval;
      parse_grid_spec(body, e.target);
      if (const auto knobs = body->get("knobs")) {
        NC_REQUIRE(knobs->is_object(), "'knobs' must be an object");
        e.knobs.vth_v = get_double(knobs, "vth_v", e.knobs.vth_v);
        e.knobs.tox_a = get_double(knobs, "tox_a", e.knobs.tox_a);
      }
      if (v3) {
        parse_organization(body, e.organization);
        e.node_nm = get_int(body, "node_nm", e.node_nm);
      }
      if (v4) {
        if (const auto exactness = body->get("exactness")) {
          e.exactness = parse_exactness(exactness->as_string());
        }
      }
      break;
    }
    case RequestKind::kOptimize: {
      auto& o = r.optimize;
      parse_grid_spec(body, o.target);
      if (const auto scheme = body->get("scheme")) {
        o.scheme = parse_scheme(scheme->as_string());
      }
      parse_delay(body, o.delay);
      if (v3) {
        parse_organization(body, o.organization);
        parse_power_gating(body, o.power_gating);
        o.node_nm = get_int(body, "node_nm", o.node_nm);
      }
      if (v4) {
        if (const auto exactness = body->get("exactness")) {
          o.exactness = parse_exactness(exactness->as_string());
        }
      }
      break;
    }
    case RequestKind::kSweep: {
      auto& s = r.sweep;
      if (const auto kindv = body->get("sweep")) {
        s.kind = parse_sweep_kind(kindv->as_string());
      }
      s.ladder_steps = get_int(body, "ladder_steps", s.ladder_steps);
      if (const auto scheme = body->get("scheme")) {
        s.l2_scheme = parse_scheme(scheme->as_string());
      }
      parse_grid_spec(body, s.target);
      parse_delay(body, s.delay);
      if (v3) s.node_nm = get_int(body, "node_nm", s.node_nm);
      break;
    }
    case RequestKind::kTupleMenu: {
      auto& t = r.tuple_menu;
      t.num_tox = get_int(body, "num_tox", t.num_tox);
      t.num_vth = get_int(body, "num_vth", t.num_vth);
      parse_delay(body, t.delay);
      t.include_frontier =
          get_bool(body, "include_frontier", t.include_frontier);
      t.frontier_max_points =
          get_int(body, "frontier_max_points", t.frontier_max_points);
      break;
    }
    case RequestKind::kCapabilities:
      break;  // no payload
  }
  return r;
}

// --- response parsing -------------------------------------------------------
//
// Exact inverse of the response writers below, used by the persistent disk
// cache: parse + re-serialize must reproduce the stored line byte for byte.
// Doubles round-trip exactly (format_double emits shortest-round-trip
// decimals), and every conditional omission on the writer side maps to a
// default value here so the re-serialized struct omits it again.

ValuePtr req_field(const ValuePtr& obj, const char* key) {
  auto v = obj->get(key);
  NC_REQUIRE(v != nullptr, std::string("response is missing '") + key + "'");
  return v;
}

double req_double(const ValuePtr& obj, const char* key) {
  const auto v = obj->get(key);
  NC_REQUIRE(v != nullptr, std::string("response is missing '") + key + "'");
  return v->as_double();
}

std::uint64_t req_uint(const ValuePtr& obj, const char* key) {
  const auto v = obj->get(key);
  NC_REQUIRE(v != nullptr, std::string("response is missing '") + key + "'");
  return v->as_uint();
}

int req_int(const ValuePtr& obj, const char* key) {
  const auto v = obj->get(key);
  NC_REQUIRE(v != nullptr, std::string("response is missing '") + key + "'");
  return static_cast<int>(v->as_int());
}

bool req_bool(const ValuePtr& obj, const char* key) {
  const auto v = obj->get(key);
  NC_REQUIRE(v != nullptr, std::string("response is missing '") + key + "'");
  return v->as_bool();
}

std::string req_string(const ValuePtr& obj, const char* key) {
  const auto v = obj->get(key);
  NC_REQUIRE(v != nullptr, std::string("response is missing '") + key + "'");
  return v->as_string();
}

json::Value::Array req_array(const ValuePtr& obj, const char* key) {
  const auto v = obj->get(key);
  NC_REQUIRE(v != nullptr, std::string("response is missing '") + key + "'");
  return v->as_array();
}

std::vector<ComponentKnobs> parse_assignment(const ValuePtr& obj,
                                             const char* key) {
  std::vector<ComponentKnobs> out;
  for (const auto& item : req_array(obj, key)) {
    ComponentKnobs c;
    c.component = req_string(item, "component");
    c.knobs.vth_v = req_double(item, "vth_v");
    c.knobs.tox_a = req_double(item, "tox_a");
    // Omitted unless true (a power-gated sleep-state component).
    if (const auto gated = item->get("gated")) c.gated = gated->as_bool();
    out.push_back(std::move(c));
  }
  return out;
}

OptimizedCache parse_optimized_cache(const ValuePtr& v) {
  OptimizedCache c;
  c.feasible = req_bool(v, "feasible");
  if (!c.feasible) {
    c.infeasible_reason = req_string(v, "infeasible_reason");
    return c;
  }
  c.leakage_mw = req_double(v, "leakage_mw");
  c.access_time_ps = req_double(v, "access_time_ps");
  c.dynamic_pj = req_double(v, "dynamic_pj");
  c.assignment = parse_assignment(v, "assignment");
  return c;
}

EvalResponse parse_eval_response(const ValuePtr& v) {
  EvalResponse e;
  e.organization = req_string(v, "organization");
  e.access_time_ps = req_double(v, "access_time_ps");
  e.leakage_mw = req_double(v, "leakage_mw");
  e.leakage_sub_mw = req_double(v, "leakage_sub_mw");
  e.leakage_gate_mw = req_double(v, "leakage_gate_mw");
  e.dynamic_pj = req_double(v, "dynamic_pj");
  e.area_um2 = req_double(v, "area_um2");
  for (const auto& item : req_array(v, "components")) {
    ComponentEval c;
    c.component = req_string(item, "component");
    c.knobs.vth_v = req_double(item, "vth_v");
    c.knobs.tox_a = req_double(item, "tox_a");
    c.delay_ps = req_double(item, "delay_ps");
    c.leakage_mw = req_double(item, "leakage_mw");
    c.dynamic_pj = req_double(item, "dynamic_pj");
    e.components.push_back(std::move(c));
  }
  return e;
}

SweepResponse parse_sweep_response(const ValuePtr& v) {
  SweepResponse s;
  s.kind = parse_sweep_kind(req_string(v, "sweep"));
  if (s.kind == SweepKind::kSchemes) {
    for (const auto& item : req_array(v, "rows")) {
      SchemesRow row;
      row.delay_target_ps = req_double(item, "delay_target_ps");
      row.scheme1 = parse_optimized_cache(req_field(item, "scheme_I"));
      row.scheme2 = parse_optimized_cache(req_field(item, "scheme_II"));
      row.scheme3 = parse_optimized_cache(req_field(item, "scheme_III"));
      s.schemes.push_back(std::move(row));
    }
    return s;
  }
  s.amat_target_ps = req_double(v, "amat_target_ps");
  for (const auto& item : req_array(v, "rows")) {
    SizeRow row;
    row.size_bytes = req_uint(item, "size_bytes");
    row.feasible = req_bool(item, "feasible");
    if (!row.feasible) {
      row.infeasible_reason = req_string(item, "infeasible_reason");
      row.miss_rate = req_double(item, "miss_rate");
    } else {
      row.miss_rate = req_double(item, "miss_rate");
      row.amat_ps = req_double(item, "amat_ps");
      row.level_leakage_mw = req_double(item, "level_leakage_mw");
      row.total_leakage_mw = req_double(item, "total_leakage_mw");
      row.result = parse_optimized_cache(req_field(item, "result"));
    }
    s.sizes.push_back(std::move(row));
  }
  return s;
}

std::vector<double> parse_double_array(const ValuePtr& obj, const char* key) {
  std::vector<double> out;
  for (const auto& item : req_array(obj, key)) out.push_back(item->as_double());
  return out;
}

MenuDesign parse_menu_design(const ValuePtr& v) {
  MenuDesign d;
  // The writer omits amat_target_ps when it is not positive (frontier
  // points); absence maps back to the 0.0 default.
  if (const auto target = v->get("amat_target_ps")) {
    d.amat_target_ps = target->as_double();
  }
  d.feasible = req_bool(v, "feasible");
  if (!d.feasible) return d;
  d.amat_ps = req_double(v, "amat_ps");
  d.energy_pj = req_double(v, "energy_pj");
  d.leakage_mw = req_double(v, "leakage_mw");
  d.tox_menu_a = parse_double_array(v, "tox_menu_a");
  d.vth_menu_v = parse_double_array(v, "vth_menu_v");
  d.l1_assignment = parse_assignment(v, "l1_assignment");
  d.l2_assignment = parse_assignment(v, "l2_assignment");
  return d;
}

TupleMenuResponse parse_tuple_menu_response(const ValuePtr& v) {
  TupleMenuResponse t;
  t.num_tox = req_int(v, "num_tox");
  t.num_vth = req_int(v, "num_vth");
  t.label = req_string(v, "label");
  t.min_amat_ps = req_double(v, "min_amat_ps");
  for (const auto& item : req_array(v, "targets")) {
    t.targets.push_back(parse_menu_design(item));
  }
  // Omitted when empty; an empty frontier re-serializes to omission.
  if (v->get("frontier")) {
    for (const auto& item : req_array(v, "frontier")) {
      t.frontier.push_back(parse_menu_design(item));
    }
  }
  return t;
}

CapabilitiesResponse parse_capabilities_response(const ValuePtr& v) {
  CapabilitiesResponse c;
  for (const auto& item : req_array(v, "schema_versions")) {
    c.schema_versions.push_back(static_cast<int>(item->as_int()));
  }
  c.api_version_major = req_int(v, "api_version_major");
  c.api_version_minor = req_int(v, "api_version_minor");
  c.vth_min_v = req_double(v, "vth_min_v");
  c.vth_max_v = req_double(v, "vth_max_v");
  c.tox_min_a = req_double(v, "tox_min_a");
  c.tox_max_a = req_double(v, "tox_max_a");
  c.grid_vth_v = parse_double_array(v, "grid_vth_v");
  c.grid_tox_a = parse_double_array(v, "grid_tox_a");
  for (const auto& item : req_array(v, "schemes")) {
    c.schemes.push_back(item->as_string());
  }
  for (const auto& item : req_array(v, "sweeps")) {
    c.sweeps.push_back(item->as_string());
  }
  c.l1_size_bytes = req_uint(v, "l1_size_bytes");
  c.l2_size_bytes = req_uint(v, "l2_size_bytes");
  c.threads = req_int(v, "threads");
  c.search_mode = req_string(v, "search_mode");
  c.fitted_models = req_bool(v, "fitted_models");
  c.disk_cache = req_bool(v, "disk_cache");
  c.cache_dir = req_string(v, "cache_dir");
  const auto org = req_field(v, "organization");
  for (const auto& item : req_array(org, "associativities")) {
    c.organization_associativities.push_back(static_cast<int>(item->as_int()));
  }
  c.organization_fully_associative = req_bool(org, "fully_associative");
  c.organization_max_banks =
      static_cast<std::uint32_t>(req_uint(org, "max_banks"));
  const auto gating = req_field(v, "power_gating");
  c.power_gating_supported = req_bool(gating, "supported");
  c.power_gating_sleep_factor = req_double(gating, "sleep_leakage_factor");
  c.power_gating_wake_factor = req_double(gating, "wake_delay_factor");
  c.power_gating_max_budget = req_double(gating, "max_perf_loss_budget");
  for (const auto& item : req_array(v, "nodes_nm")) {
    c.nodes_nm.push_back(static_cast<int>(item->as_int()));
  }
  const auto surrogate = req_field(v, "surrogate");
  c.surrogate_loaded = req_bool(surrogate, "loaded");
  c.surrogate_optimize_tables = req_int(surrogate, "optimize_tables");
  c.surrogate_fingerprint = req_string(surrogate, "fingerprint");
  c.surrogate_stamp = req_string(surrogate, "stamp");
  for (const auto& item : req_array(surrogate, "sizes_bytes")) {
    c.surrogate_sizes_bytes.push_back(item->as_uint());
  }
  for (const auto& item : req_array(surrogate, "nodes_nm")) {
    c.surrogate_nodes_nm.push_back(static_cast<int>(item->as_int()));
  }
  for (const auto& item : req_array(surrogate, "schemes")) {
    c.surrogate_schemes.push_back(item->as_string());
  }
  const auto bounds = req_field(surrogate, "max_error");
  c.surrogate_max_error_leakage_mw = req_double(bounds, "leakage_mw");
  c.surrogate_max_error_access_time_ps = req_double(bounds, "access_time_ps");
  c.surrogate_max_error_dynamic_pj = req_double(bounds, "dynamic_pj");
  return c;
}

Response response_from_value(const ValuePtr& root) {
  NC_REQUIRE(root->is_object(), "response must be a JSON object");
  Response r;
  const auto version = root->get("schema_version");
  NC_REQUIRE(version != nullptr, "response is missing schema_version");
  r.schema_version = static_cast<int>(version->as_int());
  if (const auto id = root->get("id")) r.id = id->as_string();
  r.ok = req_bool(root, "ok");
  if (!r.ok) {
    const auto err = root->get("error");
    NC_REQUIRE(err != nullptr && err->is_object(),
               "error response is missing 'error'");
    r.error.code = parse_error_code(req_string(err, "code"));
    r.error.message = req_string(err, "message");
    // Error responses do not serialize `kind`; the default survives the
    // round trip because re-serialization omits it too.
    return r;
  }
  r.kind = parse_kind(req_string(root, "kind"));
  // The writer emits served_by (plus max_error) only for surrogate
  // answers, so an absent field maps back to the kExact default and exact
  // responses re-serialize without it.
  if (const auto served_by = root->get("served_by")) {
    const std::string& name = served_by->as_string();
    NC_REQUIRE(name == "surrogate", "unknown served_by '" + name + "'");
    r.served_by = ServedBy::kSurrogate;
    const auto bounds = req_field(root, "max_error");
    r.max_error.leakage_mw = req_double(bounds, "leakage_mw");
    r.max_error.access_time_ps = req_double(bounds, "access_time_ps");
    r.max_error.dynamic_pj = req_double(bounds, "dynamic_pj");
  }
  const auto result = root->get("result");
  NC_REQUIRE(result != nullptr, "response is missing 'result'");
  switch (r.kind) {
    case RequestKind::kEval:
      r.eval = parse_eval_response(result);
      break;
    case RequestKind::kOptimize:
      r.optimize.result = parse_optimized_cache(result);
      break;
    case RequestKind::kSweep:
      r.sweep = parse_sweep_response(result);
      break;
    case RequestKind::kTupleMenu:
      r.tuple_menu = parse_tuple_menu_response(result);
      break;
    case RequestKind::kCapabilities:
      r.capabilities = parse_capabilities_response(result);
      break;
  }
  return r;
}

// --- writing helpers --------------------------------------------------------

/// Tiny ordered-object writer: fields appear exactly in append order.
class ObjectWriter {
 public:
  void field(const char* key, const std::string& raw) {
    if (!out_.empty()) out_ += ',';
    out_ += json::quote(key);
    out_ += ':';
    out_ += raw;
  }
  void string_field(const char* key, const std::string& s) {
    field(key, json::quote(s));
  }
  void double_field(const char* key, double d) {
    field(key, json::format_double(d));
  }
  void uint_field(const char* key, std::uint64_t u) {
    field(key, std::to_string(u));
  }
  void int_field(const char* key, int i) { field(key, std::to_string(i)); }
  void bool_field(const char* key, bool b) { field(key, b ? "true" : "false"); }

  std::string str() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
};

std::string double_array_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json::format_double(values[i]);
  }
  return out + "]";
}

std::string int_array_json(const std::vector<int>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string uint_array_json(const std::vector<std::uint64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string string_array_json(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json::quote(values[i]);
  }
  return out + "]";
}

std::string grid_spec_json(const GridSpec& g) {
  ObjectWriter w;
  w.string_field("level", level_name(g.level));
  w.uint_field("size_bytes", g.size_bytes);
  return w.str();
}

std::string delay_constraint_json(const DelayConstraint& d) {
  ObjectWriter w;
  w.double_field("target_ps", d.target_ps);
  w.field("targets_ps", double_array_json(d.targets_ps));
  return w.str();
}

std::string knobs_json(const Knobs& k) {
  ObjectWriter w;
  w.double_field("vth_v", k.vth_v);
  w.double_field("tox_a", k.tox_a);
  return w.str();
}

/// v3 "organization" object.  Only non-default members are emitted, and the
/// whole object is omitted by callers when the spec is all-default, so
/// serialize(parse(line)) is exact for v3 lines and byte-identical to the
/// v2 encoding for normalized v1/v2 requests.
std::string organization_json(const OrganizationSpec& org) {
  ObjectWriter w;
  if (org.associativity == -1) {
    w.string_field("associativity", "full");
  } else if (org.associativity != 0) {
    w.int_field("associativity", org.associativity);
  }
  if (org.banks != 0) w.uint_field("banks", org.banks);
  return w.str();
}

std::string power_gating_json(const PowerGatingSpec& g) {
  ObjectWriter w;
  w.bool_field("enabled", g.enabled);
  w.double_field("perf_loss_budget", g.perf_loss_budget);
  return w.str();
}

std::string assignment_json(const std::vector<ComponentKnobs>& assignment) {
  std::string out = "[";
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (i > 0) out += ',';
    ObjectWriter w;
    w.string_field("component", assignment[i].component);
    w.double_field("vth_v", assignment[i].knobs.vth_v);
    w.double_field("tox_a", assignment[i].knobs.tox_a);
    // v3 power gating; omitted when false so v1/v2 output is unchanged.
    if (assignment[i].gated) w.bool_field("gated", true);
    out += w.str();
  }
  return out + "]";
}

std::string optimized_cache_json(const OptimizedCache& c) {
  ObjectWriter w;
  w.bool_field("feasible", c.feasible);
  if (!c.feasible) {
    w.string_field("infeasible_reason", c.infeasible_reason);
    return w.str();
  }
  w.double_field("leakage_mw", c.leakage_mw);
  w.double_field("access_time_ps", c.access_time_ps);
  w.double_field("dynamic_pj", c.dynamic_pj);
  w.field("assignment", assignment_json(c.assignment));
  return w.str();
}

std::string eval_json(const EvalResponse& e) {
  ObjectWriter w;
  w.string_field("organization", e.organization);
  w.double_field("access_time_ps", e.access_time_ps);
  w.double_field("leakage_mw", e.leakage_mw);
  w.double_field("leakage_sub_mw", e.leakage_sub_mw);
  w.double_field("leakage_gate_mw", e.leakage_gate_mw);
  w.double_field("dynamic_pj", e.dynamic_pj);
  w.double_field("area_um2", e.area_um2);
  std::string components = "[";
  for (std::size_t i = 0; i < e.components.size(); ++i) {
    if (i > 0) components += ',';
    ObjectWriter c;
    c.string_field("component", e.components[i].component);
    c.double_field("vth_v", e.components[i].knobs.vth_v);
    c.double_field("tox_a", e.components[i].knobs.tox_a);
    c.double_field("delay_ps", e.components[i].delay_ps);
    c.double_field("leakage_mw", e.components[i].leakage_mw);
    c.double_field("dynamic_pj", e.components[i].dynamic_pj);
    components += c.str();
  }
  w.field("components", components + "]");
  return w.str();
}

std::string schemes_row_json(const SchemesRow& row) {
  ObjectWriter w;
  w.double_field("delay_target_ps", row.delay_target_ps);
  w.field("scheme_I", optimized_cache_json(row.scheme1));
  w.field("scheme_II", optimized_cache_json(row.scheme2));
  w.field("scheme_III", optimized_cache_json(row.scheme3));
  return w.str();
}

std::string size_row_json(const SizeRow& row) {
  ObjectWriter w;
  w.uint_field("size_bytes", row.size_bytes);
  w.bool_field("feasible", row.feasible);
  if (!row.feasible) {
    w.string_field("infeasible_reason", row.infeasible_reason);
    w.double_field("miss_rate", row.miss_rate);
    return w.str();
  }
  w.double_field("miss_rate", row.miss_rate);
  w.double_field("amat_ps", row.amat_ps);
  w.double_field("level_leakage_mw", row.level_leakage_mw);
  w.double_field("total_leakage_mw", row.total_leakage_mw);
  w.field("result", optimized_cache_json(row.result));
  return w.str();
}

std::string sweep_json(const SweepResponse& s) {
  ObjectWriter w;
  w.string_field("sweep", sweep_kind_name(s.kind));
  if (s.kind == SweepKind::kSchemes) {
    std::string rows = "[";
    for (std::size_t i = 0; i < s.schemes.size(); ++i) {
      if (i > 0) rows += ',';
      rows += schemes_row_json(s.schemes[i]);
    }
    w.field("rows", rows + "]");
  } else {
    w.double_field("amat_target_ps", s.amat_target_ps);
    std::string rows = "[";
    for (std::size_t i = 0; i < s.sizes.size(); ++i) {
      if (i > 0) rows += ',';
      rows += size_row_json(s.sizes[i]);
    }
    w.field("rows", rows + "]");
  }
  return w.str();
}

std::string menu_design_json(const MenuDesign& d) {
  ObjectWriter w;
  if (d.amat_target_ps > 0.0) w.double_field("amat_target_ps", d.amat_target_ps);
  w.bool_field("feasible", d.feasible);
  if (!d.feasible) return w.str();
  w.double_field("amat_ps", d.amat_ps);
  w.double_field("energy_pj", d.energy_pj);
  w.double_field("leakage_mw", d.leakage_mw);
  w.field("tox_menu_a", double_array_json(d.tox_menu_a));
  w.field("vth_menu_v", double_array_json(d.vth_menu_v));
  w.field("l1_assignment", assignment_json(d.l1_assignment));
  w.field("l2_assignment", assignment_json(d.l2_assignment));
  return w.str();
}

std::string tuple_menu_json(const TupleMenuResponse& t) {
  ObjectWriter w;
  w.int_field("num_tox", t.num_tox);
  w.int_field("num_vth", t.num_vth);
  w.string_field("label", t.label);
  w.double_field("min_amat_ps", t.min_amat_ps);
  std::string targets = "[";
  for (std::size_t i = 0; i < t.targets.size(); ++i) {
    if (i > 0) targets += ',';
    targets += menu_design_json(t.targets[i]);
  }
  w.field("targets", targets + "]");
  if (!t.frontier.empty()) {
    std::string frontier = "[";
    for (std::size_t i = 0; i < t.frontier.size(); ++i) {
      if (i > 0) frontier += ',';
      frontier += menu_design_json(t.frontier[i]);
    }
    w.field("frontier", frontier + "]");
  }
  return w.str();
}

std::string capabilities_json(const CapabilitiesResponse& c) {
  ObjectWriter w;
  w.field("schema_versions", int_array_json(c.schema_versions));
  w.int_field("api_version_major", c.api_version_major);
  w.int_field("api_version_minor", c.api_version_minor);
  w.double_field("vth_min_v", c.vth_min_v);
  w.double_field("vth_max_v", c.vth_max_v);
  w.double_field("tox_min_a", c.tox_min_a);
  w.double_field("tox_max_a", c.tox_max_a);
  w.field("grid_vth_v", double_array_json(c.grid_vth_v));
  w.field("grid_tox_a", double_array_json(c.grid_tox_a));
  w.field("schemes", string_array_json(c.schemes));
  w.field("sweeps", string_array_json(c.sweeps));
  w.uint_field("l1_size_bytes", c.l1_size_bytes);
  w.uint_field("l2_size_bytes", c.l2_size_bytes);
  w.int_field("threads", c.threads);
  w.string_field("search_mode", c.search_mode);
  w.bool_field("fitted_models", c.fitted_models);
  w.bool_field("disk_cache", c.disk_cache);
  w.string_field("cache_dir", c.cache_dir);
  // v3 design-space discovery (kept in lockstep with
  // parse_capabilities_response above).
  ObjectWriter org;
  org.field("associativities", int_array_json(c.organization_associativities));
  org.bool_field("fully_associative", c.organization_fully_associative);
  org.uint_field("max_banks", c.organization_max_banks);
  w.field("organization", org.str());
  ObjectWriter gating;
  gating.bool_field("supported", c.power_gating_supported);
  gating.double_field("sleep_leakage_factor", c.power_gating_sleep_factor);
  gating.double_field("wake_delay_factor", c.power_gating_wake_factor);
  gating.double_field("max_perf_loss_budget", c.power_gating_max_budget);
  w.field("power_gating", gating.str());
  w.field("nodes_nm", int_array_json(c.nodes_nm));
  // v4 surrogate-tier discovery (also lockstep with the parser above).
  ObjectWriter surrogate;
  surrogate.bool_field("loaded", c.surrogate_loaded);
  surrogate.int_field("optimize_tables", c.surrogate_optimize_tables);
  surrogate.string_field("fingerprint", c.surrogate_fingerprint);
  surrogate.string_field("stamp", c.surrogate_stamp);
  surrogate.field("sizes_bytes", uint_array_json(c.surrogate_sizes_bytes));
  surrogate.field("nodes_nm", int_array_json(c.surrogate_nodes_nm));
  surrogate.field("schemes", string_array_json(c.surrogate_schemes));
  ObjectWriter bounds;
  bounds.double_field("leakage_mw", c.surrogate_max_error_leakage_mw);
  bounds.double_field("access_time_ps", c.surrogate_max_error_access_time_ps);
  bounds.double_field("dynamic_pj", c.surrogate_max_error_dynamic_pj);
  surrogate.field("max_error", bounds.str());
  w.field("surrogate", surrogate.str());
  return w.str();
}

void key_doubles(std::string& key, const std::vector<double>& values) {
  key += '[';
  for (const double v : values) {
    key += key_double(v);
    key += ',';
  }
  key += ']';
}

/// Run a parse step, mapping a thrown kConfig Error to a kConfig failure
/// and anything else to kInternal, with the exception text as message.
template <typename T, typename Fn>
Outcome<T> parse_outcome(Fn&& parse) {
  try {
    return parse();
  } catch (const Error& e) {
    const ErrorCode code = e.category() == ErrorCategory::kConfig
                               ? ErrorCode::kConfig
                               : ErrorCode::kInternal;
    return Outcome<T>::failure(code, e.what());
  } catch (const std::exception& e) {
    return Outcome<T>::failure(ErrorCode::kInternal, e.what());
  }
}

}  // namespace

std::string key_double(double d) {
  const auto bits = std::bit_cast<std::uint64_t>(d);
  char buf[17];
  static const char* hex = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[15 - i] = hex[(bits >> (i * 4)) & 0xF];
  }
  buf[16] = '\0';
  return std::string(buf);
}

Outcome<Request> parse_request_value(const json::ValuePtr& root) {
  return parse_outcome<Request>([&] { return request_from_value(root); });
}

Outcome<Request> parse_request_json(const std::string& line) {
  return parse_outcome<Request>(
      [&] { return request_from_value(json::parse(line)); });
}

Outcome<Response> parse_response_json(const std::string& line) {
  return parse_outcome<Response>(
      [&] { return response_from_value(json::parse(line)); });
}

std::string request_to_json(const Request& request) {
  ObjectWriter w;
  // Serialization always speaks the current schema: v1-v3 requests were
  // normalized into the current structs at parse time.  The v3 design-space
  // fields and the v4 exactness selector are omitted when default, so
  // normalized old requests serialize exactly as they did under v2 (modulo
  // schema_version).
  w.int_field("schema_version", kSchemaVersion);
  if (!request.id.empty()) w.string_field("id", request.id);
  w.string_field("kind", request_kind_name(request.kind));
  switch (request.kind) {
    case RequestKind::kEval: {
      const auto& e = request.eval;
      w.field("target", grid_spec_json(e.target));
      w.field("knobs", knobs_json(e.knobs));
      if (!e.organization.is_default()) {
        w.field("organization", organization_json(e.organization));
      }
      if (e.node_nm != 0) w.int_field("node_nm", e.node_nm);
      if (e.exactness != Exactness::kAuto) {
        w.string_field("exactness", exactness_name(e.exactness));
      }
      break;
    }
    case RequestKind::kOptimize: {
      const auto& o = request.optimize;
      w.field("target", grid_spec_json(o.target));
      w.string_field("scheme", scheme_id_name(o.scheme));
      w.field("delay", delay_constraint_json(o.delay));
      if (!o.organization.is_default()) {
        w.field("organization", organization_json(o.organization));
      }
      if (o.power_gating.enabled || o.power_gating.perf_loss_budget != 0.0) {
        w.field("power_gating", power_gating_json(o.power_gating));
      }
      if (o.node_nm != 0) w.int_field("node_nm", o.node_nm);
      if (o.exactness != Exactness::kAuto) {
        w.string_field("exactness", exactness_name(o.exactness));
      }
      break;
    }
    case RequestKind::kSweep: {
      const auto& s = request.sweep;
      w.string_field("sweep", sweep_kind_name(s.kind));
      w.field("target", grid_spec_json(s.target));
      w.int_field("ladder_steps", s.ladder_steps);
      w.field("delay", delay_constraint_json(s.delay));
      w.string_field("scheme", scheme_id_name(s.l2_scheme));
      if (s.node_nm != 0) w.int_field("node_nm", s.node_nm);
      break;
    }
    case RequestKind::kTupleMenu: {
      const auto& t = request.tuple_menu;
      w.int_field("num_tox", t.num_tox);
      w.int_field("num_vth", t.num_vth);
      w.field("delay", delay_constraint_json(t.delay));
      w.bool_field("include_frontier", t.include_frontier);
      w.int_field("frontier_max_points", t.frontier_max_points);
      break;
    }
    case RequestKind::kCapabilities:
      break;  // no payload
  }
  return w.str();
}

std::string response_to_json(const Response& response) {
  ObjectWriter w;
  w.int_field("schema_version", response.schema_version);
  if (!response.id.empty()) w.string_field("id", response.id);
  if (!response.ok) {
    ObjectWriter err;
    err.string_field("code", error_code_name(response.error.code));
    err.string_field("message", response.error.message);
    w.bool_field("ok", false);
    w.field("error", err.str());
    return w.str();
  }
  w.string_field("kind", request_kind_name(response.kind));
  w.bool_field("ok", true);
  // served_by (and the proven bounds) only appear on surrogate answers:
  // exact answers keep their pre-v4 bytes, and parse_response_json maps the
  // omission back to kExact.
  if (response.served_by == ServedBy::kSurrogate) {
    w.string_field("served_by", served_by_name(response.served_by));
    ObjectWriter bounds;
    bounds.double_field("leakage_mw", response.max_error.leakage_mw);
    bounds.double_field("access_time_ps", response.max_error.access_time_ps);
    bounds.double_field("dynamic_pj", response.max_error.dynamic_pj);
    w.field("max_error", bounds.str());
  }
  switch (response.kind) {
    case RequestKind::kEval:
      w.field("result", eval_json(response.eval));
      break;
    case RequestKind::kOptimize:
      w.field("result", optimized_cache_json(response.optimize.result));
      break;
    case RequestKind::kSweep:
      w.field("result", sweep_json(response.sweep));
      break;
    case RequestKind::kTupleMenu:
      w.field("result", tuple_menu_json(response.tuple_menu));
      break;
    case RequestKind::kCapabilities:
      w.field("result", capabilities_json(response.capabilities));
      break;
  }
  return w.str();
}

std::string request_canonical_key(const Request& request) {
  // Supported schema versions mean the identical computation (v1 payloads
  // normalize to the v2 structs), so they share keys under the current
  // version.  Unsupported versions keep their own number: their (error)
  // responses quote it, so they must never dedup against supported
  // requests or each other.
  const bool supported = request.schema_version >= kMinSchemaVersion &&
                         request.schema_version <= kSchemaVersion;
  std::string key =
      "v" +
      std::to_string(supported ? kSchemaVersion : request.schema_version) +
      "|";
  key += request_kind_name(request.kind);
  key += '|';
  switch (request.kind) {
    case RequestKind::kEval: {
      const auto& e = request.eval;
      key += level_name(e.target.level);
      key += '|';
      key += std::to_string(e.target.size_bytes);
      key += '|';
      key += key_double(e.knobs.vth_v);
      key += '|';
      key += key_double(e.knobs.tox_a);
      // v3 design-space fields, appended UNCONDITIONALLY: a v1/v2 request
      // and its v3-normalized form (all defaults) produce the same key, and
      // any non-default knob gets a distinct one.
      key += "|a";
      key += std::to_string(e.organization.associativity);
      key += "|b";
      key += std::to_string(e.organization.banks);
      key += "|n";
      key += std::to_string(e.node_nm);
      // v4 exactness, also unconditional: `auto` (the normalized form of an
      // absent field) keys as x0, so pre-v4 spellings share keys — but a
      // pinned request gets its own key, keeping exact and surrogate
      // answers out of each other's cache entries.
      key += "|x";
      key += std::to_string(static_cast<int>(e.exactness));
      break;
    }
    case RequestKind::kOptimize: {
      const auto& o = request.optimize;
      key += level_name(o.target.level);
      key += '|';
      key += std::to_string(o.target.size_bytes);
      key += '|';
      key += scheme_id_name(o.scheme);
      key += '|';
      key += key_double(o.delay.target_ps);
      key += "|a";
      key += std::to_string(o.organization.associativity);
      key += "|b";
      key += std::to_string(o.organization.banks);
      key += "|g";
      key += o.power_gating.enabled ? '1' : '0';
      key += "|pb";
      key += key_double(o.power_gating.perf_loss_budget);
      key += "|n";
      key += std::to_string(o.node_nm);
      key += "|x";
      key += std::to_string(static_cast<int>(o.exactness));
      break;
    }
    case RequestKind::kSweep: {
      const auto& s = request.sweep;
      key += sweep_kind_name(s.kind);
      key += '|';
      key += level_name(s.target.level);
      key += '|';
      key += std::to_string(s.target.size_bytes);
      key += '|';
      key += std::to_string(s.ladder_steps);
      key += '|';
      key_doubles(key, s.delay.targets_ps);
      key += '|';
      key += key_double(s.delay.target_ps);
      key += '|';
      key += scheme_id_name(s.l2_scheme);
      key += "|n";
      key += std::to_string(s.node_nm);
      break;
    }
    case RequestKind::kTupleMenu: {
      const auto& t = request.tuple_menu;
      key += std::to_string(t.num_tox);
      key += '|';
      key += std::to_string(t.num_vth);
      key += '|';
      key_doubles(key, t.delay.targets_ps);
      key += '|';
      key += t.include_frontier ? "f1" : "f0";
      key += '|';
      key += std::to_string(t.frontier_max_points);
      break;
    }
    case RequestKind::kCapabilities:
      break;  // no payload fields
  }
  return key;
}

std::string response_line(const Response& response) {
  try {
    return response_to_json(response);
  } catch (const Error& e) {
    static auto& serialize_errors = metrics::Registry::instance().counter(
        "api.batch.serialize_errors");
    serialize_errors.add(1);
    Response fallback;
    fallback.schema_version = response.schema_version;
    fallback.id = response.id;
    fallback.kind = response.kind;
    fallback.ok = false;
    fallback.error.code = e.category() == ErrorCategory::kNumericDomain
                              ? ErrorCode::kNumericDomain
                              : ErrorCode::kInternal;
    fallback.error.message =
        std::string("response serialization failed: ") + e.what();
    return response_to_json(fallback);
  }
}

BatchStats run_batch_jsonl(const Service& service, std::istream& in,
                           std::ostream& out) {
  // Slot per non-empty input line: either a parsed request (index into the
  // batch) or a ready-made parse-error response.
  struct Slot {
    bool parsed = false;
    std::size_t batch_index = 0;
    Response error_response{};
  };
  std::vector<Slot> slots;
  std::vector<Request> requests;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Skip blank lines so hand-edited files with trailing newlines work.
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    Slot slot;
    auto parsed = parse_request_json(line);
    if (parsed.ok()) {
      slot.parsed = true;
      slot.batch_index = requests.size();
      requests.push_back(std::move(parsed.value()));
    } else {
      Response r;
      r.ok = false;
      r.error = parsed.error();
      r.error.message =
          "line " + std::to_string(line_number) + ": " + r.error.message;
      slot.error_response = std::move(r);
    }
    slots.push_back(std::move(slot));
  }

  BatchResult batch = service.run_batch(requests);
  BatchStats stats = batch.stats;
  stats.requests += slots.size() - requests.size();  // count failed lines

  {
    auto& registry = metrics::Registry::instance();
    static auto& lines = registry.counter("api.batch.lines");
    static auto& parse_errors = registry.counter("api.batch.parse_errors");
    lines.add(slots.size());
    parse_errors.add(slots.size() - requests.size());
  }
  for (const auto& slot : slots) {
    const Response& r = slot.parsed ? batch.responses[slot.batch_index]
                                    : slot.error_response;
    // response_line (not response_to_json): a response field that cannot be
    // serialized degrades to an error line in place, preserving line order.
    out << response_line(r) << '\n';
  }
  return stats;
}

}  // namespace nanocache::api
