#include "surrogate/tables.h"

#include <filesystem>
#include <fstream>
#include <utility>

#include "util/error.h"
#include "util/hash.h"
#include "util/json.h"

namespace nanocache::surrogate {

namespace {

api::Level parse_level(const std::string& s) {
  if (s == "l1") return api::Level::kL1;
  if (s == "l2") return api::Level::kL2;
  throw Error(ErrorCategory::kConfig, "unknown level '" + s + "'");
}

api::SchemeId parse_scheme(const std::string& s) {
  if (s == "I") return api::SchemeId::kI;
  if (s == "II") return api::SchemeId::kII;
  if (s == "III") return api::SchemeId::kIII;
  throw Error(ErrorCategory::kConfig, "unknown scheme '" + s + "'");
}

json::ValuePtr require_field(const json::ValuePtr& root, const char* key) {
  auto v = root->get(key);
  NC_REQUIRE(v != nullptr, std::string("surrogate table missing '") + key +
                               "' field");
  return v;
}

OptimizeTable parse_optimize_table(const json::ValuePtr& root) {
  OptimizeTable t;
  t.level = parse_level(require_field(root, "level")->as_string());
  t.size_bytes = require_field(root, "size_bytes")->as_uint();
  t.node_nm = static_cast<int>(require_field(root, "node_nm")->as_int());
  t.scheme = parse_scheme(require_field(root, "scheme")->as_string());
  for (const auto& rv : require_field(root, "rungs")->as_array()) {
    OptimizeRung rung;
    rung.target_ps = require_field(rv, "target_ps")->as_double();
    rung.leakage_mw = require_field(rv, "leakage_mw")->as_double();
    rung.access_time_ps = require_field(rv, "access_time_ps")->as_double();
    rung.dynamic_pj = require_field(rv, "dynamic_pj")->as_double();
    for (const auto& av : require_field(rv, "assignment")->as_array()) {
      api::ComponentKnobs knobs;
      knobs.component = require_field(av, "component")->as_string();
      knobs.knobs.vth_v = require_field(av, "vth_v")->as_double();
      knobs.knobs.tox_a = require_field(av, "tox_a")->as_double();
      rung.assignment.push_back(std::move(knobs));
    }
    t.rungs.push_back(std::move(rung));
  }
  NC_REQUIRE(!t.rungs.empty(), "surrogate optimize table has no rungs");
  for (std::size_t i = 1; i < t.rungs.size(); ++i) {
    NC_REQUIRE(t.rungs[i].target_ps > t.rungs[i - 1].target_ps,
               "surrogate optimize ladder must increase");
  }
  return t;
}

}  // namespace

std::string optimize_table_json(const OptimizeTable& table) {
  std::string out = "{\"kind\":\"optimize\"";
  out += ",\"level\":" + json::quote(api::level_name(table.level));
  out += ",\"size_bytes\":" + std::to_string(table.size_bytes);
  out += ",\"node_nm\":" + std::to_string(table.node_nm);
  out += ",\"scheme\":" + json::quote(api::scheme_id_name(table.scheme));
  out += ",\"rungs\":[";
  for (std::size_t i = 0; i < table.rungs.size(); ++i) {
    const auto& rung = table.rungs[i];
    if (i != 0) out += ',';
    out += "{\"target_ps\":" + json::format_double(rung.target_ps);
    out += ",\"leakage_mw\":" + json::format_double(rung.leakage_mw);
    out += ",\"access_time_ps\":" + json::format_double(rung.access_time_ps);
    out += ",\"dynamic_pj\":" + json::format_double(rung.dynamic_pj);
    out += ",\"assignment\":[";
    for (std::size_t a = 0; a < rung.assignment.size(); ++a) {
      const auto& knobs = rung.assignment[a];
      if (a != 0) out += ',';
      out += "{\"component\":" + json::quote(knobs.component);
      out += ",\"vth_v\":" + json::format_double(knobs.knobs.vth_v);
      out += ",\"tox_a\":" + json::format_double(knobs.knobs.tox_a);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

OptimizeTable parse_table_json(const std::string& text) {
  const auto root = json::parse(text);
  NC_REQUIRE(root->is_object(), "surrogate table line must be an object");
  const std::string kind = require_field(root, "kind")->as_string();
  NC_REQUIRE(kind == "optimize",
             "unknown surrogate table kind '" + kind + "'");
  return parse_optimize_table(root);
}

std::string segment_path(const std::string& dir,
                         const std::string& fingerprint) {
  return dir + "/nanocache-surrogate-" + fingerprint + ".jsonl";
}

void write_segment(const std::string& dir, const std::string& fingerprint,
                   const std::string& stamp,
                   const std::vector<OptimizeTable>& optimizes) {
  NC_REQUIRE(!dir.empty(), "surrogate directory must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  NC_REQUIRE_IO(!ec, "cannot create surrogate directory '" + dir +
                         "': " + ec.message());

  const std::string path = segment_path(dir, fingerprint);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    NC_REQUIRE_IO(out.good(),
                  "cannot write surrogate segment '" + tmp + "'");
    out << "{\"nanocache_surrogate\":1,\"fingerprint\":"
        << json::quote(fingerprint) << ",\"stamp\":" << json::quote(stamp)
        << "}\n";
    for (const auto& t : optimizes) {
      const std::string table = optimize_table_json(t);
      out << "{\"checksum\":" << json::quote(fnv1a64_hex(table))
          << ",\"table\":" << json::quote(table) << "}\n";
    }
    out.flush();
    NC_REQUIRE_IO(out.good(),
                  "failed writing surrogate segment '" + tmp + "'");
  }
  std::filesystem::rename(tmp, path, ec);
  NC_REQUIRE_IO(!ec, "cannot finalize surrogate segment '" + path +
                         "': " + ec.message());
}

}  // namespace nanocache::surrogate
