#include "api/batch_io.h"

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/enum_name.h"
#include "util/error.h"
#include "util/json.h"
#include "util/metrics.h"

namespace nanocache::api {

namespace {

using json::ValuePtr;

// --- the wire description ---------------------------------------------------
//
// Each wire struct lists its fields once, in wire order, in one
// `fields(io, x)` function.  Writer runs that list to append the JSON bytes;
// Reader runs the same list to fill the struct from a parsed json::Value,
// so the two sides cannot drift apart.  The calls mean the same to both:
//   io.field(key, v)          always written; on read, required in a
//                             response and optional in a request (an absent
//                             request field keeps its default)
//   io.omit_if(cond, key, v)  written unless `cond` holds; optional on read
//   io.object(key, fn)        a nested object whose fields fn(io) lists
//   io.version()              the request schema version: kSchemaVersion
//                             for the Writer, the line's own for the Reader
// Doubles are written with format_double (shortest round trip) and every
// omission reads back as the default it was omitted for, so reading a
// written line and writing it again reproduces its bytes.

/// How an enum is spelled on the wire: its `*_name` function, its last
/// enumerator, and the noun a parse error calls it.
template <typename E>
struct Spelling {
  const char* (*name)(E);
  E last;
  const char* noun;
};

constexpr Spelling<Level> spelling(Level) {
  return {level_name, Level::kL2, "level"};
}
constexpr Spelling<SchemeId> spelling(SchemeId) {
  return {scheme_id_name, SchemeId::kIII, "scheme"};
}
constexpr Spelling<RequestKind> spelling(RequestKind) {
  return {request_kind_name, RequestKind::kCapabilities, "request kind"};
}
constexpr Spelling<Exactness> spelling(Exactness) {
  return {exactness_name, Exactness::kSurrogate, "exactness"};
}
constexpr Spelling<SweepKind> spelling(SweepKind) {
  return {sweep_kind_name, SweepKind::kL2Sizes, "sweep kind"};
}
constexpr Spelling<ErrorCode> spelling(ErrorCode) {
  return {error_code_name, ErrorCode::kInternal, "error code"};
}
constexpr Spelling<ServedBy> spelling(ServedBy) {
  return {served_by_name, ServedBy::kSurrogate, "served_by"};
}

/// organization.associativity: a way count, or "full" for -1 (fully
/// associative).
struct Associativity {
  int& ways;
};

/// `wide` as a T: a value T cannot hold is an error, never a wrapped value.
template <typename T, typename Wide>
T narrow(Wide wide, const char* key) {
  if (!std::in_range<T>(wide)) {
    throw Error(ErrorCategory::kConfig, std::string("'") + key +
                                            "' is out of range: " +
                                            std::to_string(wide));
  }
  return static_cast<T>(wide);
}

/// Appends a description's JSON to one string.
struct Writer {
  static constexpr bool kReading = false;
  /// False for the canonical request key, which leaves the id out.
  bool with_id = true;
  std::string out;

  int version() const { return kSchemaVersion; }

  template <typename T>
  void field(const char* key, const T& value) {
    begin_field(key);
    write(value);
  }
  template <typename T>
  void omit_if(bool omit, const char* key, const T& value) {
    if (!omit) field(key, value);
  }
  template <typename Fn>
  void object(const char* key, Fn&& list) {
    begin_field(key);
    out += '{';
    list(*this);
    out += '}';
  }

  void write(double d) { json::append_double(out, d); }
  void write(bool b) { out += b ? "true" : "false"; }
  template <typename T>
    requires std::is_integral_v<T>
  void write(T i) {
    out += std::to_string(i);
  }
  void write(const std::string& s) { json::append_quoted(out, s); }
  void write(Associativity a) {
    out += a.ways == -1 ? "\"full\"" : std::to_string(a.ways);
  }
  template <typename E>
    requires std::is_enum_v<E>
  void write(E e) {
    json::append_quoted(out, spelling(e).name(e));
  }
  template <typename T>
  void write(const std::vector<T>& items) {
    out += '[';
    for (const T& item : items) {
      separate();
      write(item);
    }
    out += ']';
  }
  template <typename T>
    requires std::is_class_v<T>
  void write(const T& value) {
    out += '{';
    // A description takes its struct mutably so that the Reader can fill
    // it; the Writer only reads through the reference.
    fields(*this, const_cast<T&>(value));
    out += '}';
  }

 private:
  /// A comma before every member but the first of its object or array.
  void separate() {
    if (out.back() != '{' && out.back() != '[') out += ',';
  }
  void begin_field(const char* key) {
    separate();
    out += '"';
    out += key;  // keys are plain identifiers: nothing to escape
    out += "\":";
  }
};

/// Fills a struct from a parsed JSON object by running its description.
class Reader {
 public:
  static constexpr bool kReading = true;
  static constexpr bool with_id = true;

  /// `strict` (responses): an absent io.field fails.  Otherwise (requests)
  /// it keeps its default.  `version` is the request's schema version.
  Reader(const json::Value& object, bool strict, int version)
      : object_(object), strict_(strict), version_(version) {}

  int version() const { return version_; }

  template <typename T>
  void field(const char* key, T&& value) {
    if (const ValuePtr item = find(key, strict_)) read(*item, value, key);
  }
  template <typename T>
  void omit_if(bool, const char* key, T&& value) {
    if (const ValuePtr item = find(key, false)) read(*item, value, key);
  }
  template <typename Fn>
  void object(const char* key, Fn&& list) {
    if (const ValuePtr item = find(key, strict_)) nested(*item, key, list);
  }

 private:
  ValuePtr find(const char* key, bool required) const {
    ValuePtr item = object_.get(key);
    if (!item && required) {
      throw Error(ErrorCategory::kConfig,
                  std::string("response is missing '") + key + "'");
    }
    return item;
  }

  template <typename Fn>
  void nested(const json::Value& value, const char* key, Fn&& list) const {
    if (!value.is_object()) {
      throw Error(ErrorCategory::kConfig,
                  std::string("'") + key + "' must be an object");
    }
    Reader inner(value, strict_, version_);
    list(inner);
  }

  void read(const json::Value& v, double& d, const char*) {
    d = v.as_double();
  }
  void read(const json::Value& v, bool& b, const char*) { b = v.as_bool(); }
  void read(const json::Value& v, int& i, const char* key) {
    i = narrow<int>(v.as_int(), key);
  }
  void read(const json::Value& v, std::uint32_t& u, const char* key) {
    u = narrow<std::uint32_t>(v.as_uint(), key);
  }
  void read(const json::Value& v, std::uint64_t& u, const char*) {
    u = v.as_uint();
  }
  void read(const json::Value& v, std::string& s, const char*) {
    s = v.as_string();
  }
  void read(const json::Value& v, Associativity a, const char* key) {
    if (!v.is_string()) return read(v, a.ways, key);
    if (v.as_string() != "full") {
      throw Error(ErrorCategory::kConfig,
                  "organization.associativity must be 1, 2, 4, 8, or "
                  "\"full\"");
    }
    a.ways = -1;
  }
  template <typename E>
    requires std::is_enum_v<E>
  void read(const json::Value& v, E& e, const char*) {
    const Spelling<E> s = spelling(E{});
    e = parse_enum(v.as_string(), s.name, s.last, s.noun);
  }
  template <typename T>
  void read(const json::Value& v, std::vector<T>& items, const char* key) {
    const auto& array = v.as_array();
    items.clear();
    items.reserve(array.size());
    for (const ValuePtr& item : array) {
      read(*item, items.emplace_back(), key);
    }
  }
  template <typename T>
    requires std::is_class_v<T>
  void read(const json::Value& v, T& value, const char* key) {
    nested(v, key, [&](Reader& inner) { fields(inner, value); });
  }

  const json::Value& object_;
  bool strict_;
  int version_;
};

// --- requests ---------------------------------------------------------------

/// v2 "target" object.
template <typename IO>
void fields(IO& io, GridSpec& g) {
  io.field("level", g.level);
  io.field("size_bytes", g.size_bytes);
}

/// v2 "delay" object.
template <typename IO>
void fields(IO& io, DelayConstraint& d) {
  io.field("target_ps", d.target_ps);
  io.field("targets_ps", d.targets_ps);
}

template <typename IO>
void fields(IO& io, Knobs& k) {
  io.field("vth_v", k.vth_v);
  io.field("tox_a", k.tox_a);
}

/// v3 "organization" object.  Only non-default members are written, and
/// requests omit the whole object when it is all-default, so normalized
/// v1/v2 requests keep their v2 bytes.
template <typename IO>
void fields(IO& io, OrganizationSpec& org) {
  io.omit_if(org.associativity == 0, "associativity",
             Associativity{org.associativity});
  io.omit_if(org.banks == 0, "banks", org.banks);
  // An explicit single bank IS the default organization: normalize at parse
  // so both spellings share one canonical key (and one cache entry).
  if constexpr (IO::kReading) {
    if (org.banks == 1) org.banks = 0;
  }
}

/// v3 "power_gating" object.
template <typename IO>
void fields(IO& io, PowerGatingSpec& g) {
  io.field("enabled", g.enabled);
  io.field("perf_loss_budget", g.perf_loss_budget);
}

// Request payloads sit at the top level of the request object.  The v3
// design-space fields and the v4 exactness selector are read only from
// v3+/v4 lines and written only when not default, so a normalized older
// request writes exactly its v2 bytes (modulo schema_version).

template <typename IO>
void fields(IO& io, EvalRequest& e) {
  io.field("target", e.target);
  io.field("knobs", e.knobs);
  if (io.version() >= 3) {
    io.omit_if(e.organization.is_default(), "organization", e.organization);
    io.omit_if(e.node_nm == 0, "node_nm", e.node_nm);
  }
  if (io.version() >= 4) {
    io.omit_if(e.exactness == Exactness::kAuto, "exactness", e.exactness);
  }
}

template <typename IO>
void fields(IO& io, OptimizeRequest& o) {
  io.field("target", o.target);
  io.field("scheme", o.scheme);
  io.field("delay", o.delay);
  if (io.version() >= 3) {
    io.omit_if(o.organization.is_default(), "organization", o.organization);
    const PowerGatingSpec& gating = o.power_gating;
    io.omit_if(!gating.enabled && gating.perf_loss_budget == 0.0,
               "power_gating", o.power_gating);
    io.omit_if(o.node_nm == 0, "node_nm", o.node_nm);
  }
  if (io.version() >= 4) {
    io.omit_if(o.exactness == Exactness::kAuto, "exactness", o.exactness);
  }
}

template <typename IO>
void fields(IO& io, SweepRequest& s) {
  io.field("sweep", s.kind);
  io.field("target", s.target);
  io.field("ladder_steps", s.ladder_steps);
  io.field("delay", s.delay);
  io.field("scheme", s.l2_scheme);
  if (io.version() >= 3) io.omit_if(s.node_nm == 0, "node_nm", s.node_nm);
}

template <typename IO>
void fields(IO& io, TupleMenuRequest& t) {
  io.field("num_tox", t.num_tox);
  io.field("num_vth", t.num_vth);
  io.field("delay", t.delay);
  io.field("include_frontier", t.include_frontier);
  io.field("frontier_max_points", t.frontier_max_points);
}

/// The request envelope.  Writing always speaks the current schema: older
/// lines were normalized into the current structs when they were read.
template <typename IO>
void fields(IO& io, Request& r) {
  int version = io.version();
  io.field("schema_version", version);
  io.omit_if(r.id.empty() || !io.with_id, "id", r.id);
  io.field("kind", r.kind);
  switch (r.kind) {
    case RequestKind::kEval: fields(io, r.eval); break;
    case RequestKind::kOptimize: fields(io, r.optimize); break;
    case RequestKind::kSweep: fields(io, r.sweep); break;
    case RequestKind::kTupleMenu: fields(io, r.tuple_menu); break;
    case RequestKind::kCapabilities: break;  // no payload
  }
}

// --- responses --------------------------------------------------------------

template <typename IO>
void fields(IO& io, ComponentKnobs& c) {
  io.field("component", c.component);
  fields(io, c.knobs);
  // v3 power gating; omitted unless true so v1/v2 output is unchanged.
  io.omit_if(!c.gated, "gated", c.gated);
}

template <typename IO>
void fields(IO& io, OptimizedCache& c) {
  io.field("feasible", c.feasible);
  if (!c.feasible) {
    io.field("infeasible_reason", c.infeasible_reason);
    return;
  }
  io.field("leakage_mw", c.leakage_mw);
  io.field("access_time_ps", c.access_time_ps);
  io.field("dynamic_pj", c.dynamic_pj);
  io.field("assignment", c.assignment);
}

template <typename IO>
void fields(IO& io, ComponentEval& c) {
  io.field("component", c.component);
  fields(io, c.knobs);
  io.field("delay_ps", c.delay_ps);
  io.field("leakage_mw", c.leakage_mw);
  io.field("dynamic_pj", c.dynamic_pj);
}

template <typename IO>
void fields(IO& io, EvalResponse& e) {
  io.field("organization", e.organization);
  io.field("access_time_ps", e.access_time_ps);
  io.field("leakage_mw", e.leakage_mw);
  io.field("leakage_sub_mw", e.leakage_sub_mw);
  io.field("leakage_gate_mw", e.leakage_gate_mw);
  io.field("dynamic_pj", e.dynamic_pj);
  io.field("area_um2", e.area_um2);
  io.field("components", e.components);
}

template <typename IO>
void fields(IO& io, SchemesRow& row) {
  io.field("delay_target_ps", row.delay_target_ps);
  io.field("scheme_I", row.scheme1);
  io.field("scheme_II", row.scheme2);
  io.field("scheme_III", row.scheme3);
}

template <typename IO>
void fields(IO& io, SizeRow& row) {
  io.field("size_bytes", row.size_bytes);
  io.field("feasible", row.feasible);
  if (!row.feasible) io.field("infeasible_reason", row.infeasible_reason);
  io.field("miss_rate", row.miss_rate);
  if (!row.feasible) return;
  io.field("amat_ps", row.amat_ps);
  io.field("level_leakage_mw", row.level_leakage_mw);
  io.field("total_leakage_mw", row.total_leakage_mw);
  io.field("result", row.result);
}

template <typename IO>
void fields(IO& io, SweepResponse& s) {
  io.field("sweep", s.kind);
  if (s.kind == SweepKind::kSchemes) {
    io.field("rows", s.schemes);
    return;
  }
  io.field("amat_target_ps", s.amat_target_ps);
  io.field("rows", s.sizes);
}

template <typename IO>
void fields(IO& io, MenuDesign& d) {
  // Frontier points answer no target (0.0): the key is left out.
  io.omit_if(!(d.amat_target_ps > 0.0), "amat_target_ps", d.amat_target_ps);
  io.field("feasible", d.feasible);
  if (!d.feasible) return;
  io.field("amat_ps", d.amat_ps);
  io.field("energy_pj", d.energy_pj);
  io.field("leakage_mw", d.leakage_mw);
  io.field("tox_menu_a", d.tox_menu_a);
  io.field("vth_menu_v", d.vth_menu_v);
  io.field("l1_assignment", d.l1_assignment);
  io.field("l2_assignment", d.l2_assignment);
}

template <typename IO>
void fields(IO& io, TupleMenuResponse& t) {
  io.field("num_tox", t.num_tox);
  io.field("num_vth", t.num_vth);
  io.field("label", t.label);
  io.field("min_amat_ps", t.min_amat_ps);
  io.field("targets", t.targets);
  io.omit_if(t.frontier.empty(), "frontier", t.frontier);
}

template <typename IO>
void fields(IO& io, CapabilitiesResponse& c) {
  io.field("schema_versions", c.schema_versions);
  io.field("api_version_major", c.api_version_major);
  io.field("api_version_minor", c.api_version_minor);
  io.field("vth_min_v", c.vth_min_v);
  io.field("vth_max_v", c.vth_max_v);
  io.field("tox_min_a", c.tox_min_a);
  io.field("tox_max_a", c.tox_max_a);
  io.field("grid_vth_v", c.grid_vth_v);
  io.field("grid_tox_a", c.grid_tox_a);
  io.field("schemes", c.schemes);
  io.field("sweeps", c.sweeps);
  io.field("l1_size_bytes", c.l1_size_bytes);
  io.field("l2_size_bytes", c.l2_size_bytes);
  io.field("threads", c.threads);
  io.field("search_mode", c.search_mode);
  io.field("fitted_models", c.fitted_models);
  io.field("disk_cache", c.disk_cache);
  io.field("cache_dir", c.cache_dir);
  // v3 design-space discovery.
  io.object("organization", [&](auto& org) {
    org.field("associativities", c.organization_associativities);
    org.field("fully_associative", c.organization_fully_associative);
    org.field("max_banks", c.organization_max_banks);
  });
  io.object("power_gating", [&](auto& gating) {
    gating.field("supported", c.power_gating_supported);
    gating.field("sleep_leakage_factor", c.power_gating_sleep_factor);
    gating.field("wake_delay_factor", c.power_gating_wake_factor);
    gating.field("max_perf_loss_budget", c.power_gating_max_budget);
  });
  io.field("nodes_nm", c.nodes_nm);
  // v4 surrogate-tier discovery.
  io.object("surrogate", [&](auto& surrogate) {
    surrogate.field("loaded", c.surrogate_loaded);
    surrogate.field("optimize_tables", c.surrogate_optimize_tables);
    surrogate.field("fingerprint", c.surrogate_fingerprint);
    surrogate.field("stamp", c.surrogate_stamp);
    surrogate.field("sizes_bytes", c.surrogate_sizes_bytes);
    surrogate.field("nodes_nm", c.surrogate_nodes_nm);
    surrogate.field("schemes", c.surrogate_schemes);
    surrogate.object("max_error", [&](auto& bounds) {
      bounds.field("leakage_mw", c.surrogate_max_error_leakage_mw);
      bounds.field("access_time_ps", c.surrogate_max_error_access_time_ps);
      bounds.field("dynamic_pj", c.surrogate_max_error_dynamic_pj);
    });
  });
}

template <typename IO>
void fields(IO& io, SurrogateErrorBounds& b) {
  io.field("leakage_mw", b.leakage_mw);
  io.field("access_time_ps", b.access_time_ps);
  io.field("dynamic_pj", b.dynamic_pj);
}

template <typename IO>
void fields(IO& io, ErrorInfo& e) {
  io.field("code", e.code);
  io.field("message", e.message);
}

/// The response envelope.  `kind` and the payload appear on served
/// responses, `error` on failed ones.
template <typename IO>
void fields(IO& io, Response& r) {
  io.field("schema_version", r.schema_version);
  io.omit_if(r.id.empty(), "id", r.id);
  io.omit_if(!r.ok, "kind", r.kind);
  io.field("ok", r.ok);
  if (!r.ok) {
    io.field("error", r.error);
    return;
  }
  // served_by and its proven bounds only appear on surrogate answers, so
  // exact answers keep their pre-v4 bytes.
  const bool exact = r.served_by == ServedBy::kExact;
  io.omit_if(exact, "served_by", r.served_by);
  io.omit_if(exact, "max_error", r.max_error);
  switch (r.kind) {
    case RequestKind::kEval: io.field("result", r.eval); break;
    case RequestKind::kOptimize: io.field("result", r.optimize.result); break;
    case RequestKind::kSweep: io.field("result", r.sweep); break;
    case RequestKind::kTupleMenu: io.field("result", r.tuple_menu); break;
    case RequestKind::kCapabilities: io.field("result", r.capabilities); break;
  }
}

// --- reading and writing whole lines ----------------------------------------

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
  if (!root || !root->is_object()) {
    throw Error(ErrorCategory::kConfig, "request must be a JSON object");
  }
  const auto version = root->get("schema_version");
  if (!version) {
    throw Error(ErrorCategory::kConfig, "request is missing schema_version");
  }
  const int v = narrow<int>(version->as_int(), "schema_version");
  if (v < kMinSchemaVersion || v > kSchemaVersion) {
    throw Error(ErrorCategory::kConfig,
                "unsupported schema_version " + std::to_string(v) +
                    " (this build speaks " +
                    std::to_string(kMinSchemaVersion) + ".." +
                    std::to_string(kSchemaVersion) + ")");
  }
  if (!root->get("kind")) {
    throw Error(ErrorCategory::kConfig, "request is missing kind");
  }
  // One reader for every version: v1 lines are first rewritten into the v2
  // shape (which needs the kind), and the description reads v3/v4 fields
  // only from v3+/v4 lines.  The request speaks the current schema after.
  Request r;
  ValuePtr body = root;
  if (v == 1) {
    Reader(*root, /*strict=*/false, v).field("kind", r.kind);
    body = v1_as_v2(root, r.kind);
  }
  Reader reader(*body, /*strict=*/false, v);
  fields(reader, r);
  r.schema_version = kSchemaVersion;
  return r;
}

/// The wire line of a request or response; `with_id` false leaves out a
/// request's per-call id.
template <typename T>
std::string wire_line(const T& value, bool with_id = true) {
  Writer w;
  w.with_id = with_id;
  w.out.reserve(1024);
  w.write(value);
  return std::move(w.out);
}

}  // namespace

Outcome<Request> parse_request_value(const json::ValuePtr& root) {
  return parse_outcome<Request>([&] { return request_from_value(root); });
}

Outcome<Request> parse_request_json(const std::string& line) {
  return parse_outcome<Request>(
      [&] { return request_from_value(json::parse(line)); });
}

Outcome<Response> parse_response_json(const std::string& line) {
  return parse_outcome<Response>([&] {
    const ValuePtr root = json::parse(line);
    if (!root->is_object()) {
      throw Error(ErrorCategory::kConfig, "response must be a JSON object");
    }
    Response r;
    Reader reader(*root, /*strict=*/true, kSchemaVersion);
    fields(reader, r);
    return r;
  });
}

std::string request_to_json(const Request& request) {
  return wire_line(request);
}

std::string response_to_json(const Response& response) {
  return wire_line(response);
}

std::string request_canonical_key(const Request& request) {
  std::string line;
  try {
    line = wire_line(request, /*with_id=*/false);
  } catch (const Error&) {
    return {};  // a non-finite double has no wire spelling
  }
  // The line always speaks the current schema, which is right for every
  // supported version (they normalize to the same structs).  An
  // unsupported version keeps its own number: its error response quotes
  // it, so it must never share a key with a supported request.
  if (request.schema_version < kMinSchemaVersion ||
      request.schema_version > kSchemaVersion) {
    return "v" + std::to_string(request.schema_version) + "|" + line;
  }
  return line;
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
        "response serialization failed: " + std::string(e.message());
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
