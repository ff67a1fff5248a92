#include "surrogate/tables.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/enum_name.h"
#include "util/error.h"
#include "util/json.h"

namespace nanocache::surrogate {

namespace {

json::ValuePtr require_field(const json::ValuePtr& root, const char* key) {
  auto v = root->get(key);
  NC_REQUIRE(v != nullptr, std::string("surrogate table missing '") + key +
                               "' field");
  return v;
}

std::string optimize_table_json(const OptimizeTable& table) {
  std::string out = "{\"kind\":\"optimize\"";
  out += ",\"level\":" + json::quote(api::level_name(table.level));
  out += ",\"size_bytes\":" + std::to_string(table.size_bytes);
  out += ",\"node_nm\":" + std::to_string(table.node_nm);
  out += ",\"scheme\":" + json::quote(api::scheme_id_name(table.scheme));
  out += ",\"rungs\":[";
  for (std::size_t i = 0; i < table.rungs.size(); ++i) {
    const auto& r = table.rungs[i].result;
    if (i != 0) out += ',';
    out += "{\"target_ps\":" + json::format_double(table.rungs[i].target_ps);
    out += ",\"leakage_mw\":" + json::format_double(r.leakage_mw);
    out += ",\"access_time_ps\":" + json::format_double(r.access_time_ps);
    out += ",\"dynamic_pj\":" + json::format_double(r.dynamic_pj);
    out += ",\"assignment\":[";
    for (std::size_t a = 0; a < r.assignment.size(); ++a) {
      const auto& knobs = r.assignment[a];
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

}  // namespace

OptimizeTable parse_table_json(const std::string& text) {
  const auto root = json::parse(text);
  const std::string kind = require_field(root, "kind")->as_string();
  NC_REQUIRE(kind == "optimize",
             "unknown surrogate table kind '" + kind + "'");
  OptimizeTable t;
  t.level = parse_enum(require_field(root, "level")->as_string(),
                       api::level_name, api::Level::kL2, "level");
  t.size_bytes = require_field(root, "size_bytes")->as_uint();
  const std::int64_t node_nm = require_field(root, "node_nm")->as_int();
  NC_REQUIRE(std::in_range<int>(node_nm),
             "surrogate table node_nm out of range: " +
                 std::to_string(node_nm));
  t.node_nm = static_cast<int>(node_nm);
  t.scheme = parse_enum(require_field(root, "scheme")->as_string(),
                        api::scheme_id_name, api::SchemeId::kIII, "scheme");
  for (const auto& rv : require_field(root, "rungs")->as_array()) {
    OptimizeRung rung;
    rung.target_ps = require_field(rv, "target_ps")->as_double();
    auto& r = rung.result;
    r.feasible = true;
    r.leakage_mw = require_field(rv, "leakage_mw")->as_double();
    r.access_time_ps = require_field(rv, "access_time_ps")->as_double();
    r.dynamic_pj = require_field(rv, "dynamic_pj")->as_double();
    for (const auto& av : require_field(rv, "assignment")->as_array()) {
      api::ComponentKnobs knobs;
      knobs.component = require_field(av, "component")->as_string();
      knobs.knobs.vth_v = require_field(av, "vth_v")->as_double();
      knobs.knobs.tox_a = require_field(av, "tox_a")->as_double();
      r.assignment.push_back(std::move(knobs));
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

std::string table_key(api::Level level, std::uint64_t size_bytes, int node_nm,
                      api::SchemeId scheme) {
  return std::string(api::level_name(level)) + '|' +
         std::to_string(size_bytes) + '|' + std::to_string(node_nm) + '|' +
         api::scheme_id_name(scheme);
}

std::string segment_path(const std::string& dir,
                         const std::string& fingerprint) {
  return dir + "/nanocache-surrogate-" + fingerprint + ".jsonl";
}

segment::Header segment_header(const std::string& fingerprint,
                               const std::string& stamp) {
  return {"nanocache_surrogate", 2, fingerprint, stamp};
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
    out << segment::header_line(segment_header(fingerprint, stamp));
    for (const auto& t : optimizes) {
      out << segment::entry_line(
          table_key(t.level, t.size_bytes, t.node_nm, t.scheme),
          optimize_table_json(t));
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
