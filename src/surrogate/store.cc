#include "surrogate/store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "util/error.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/metrics.h"

namespace nanocache::surrogate {

namespace {

struct StoreCounters {
  metrics::Counter& tables;
  metrics::Counter& corrupt;
  metrics::Counter& rejects;
};

StoreCounters& store_counters() {
  static auto& registry = metrics::Registry::instance();
  static StoreCounters counters{
      registry.counter("api.surrogate.tables"),
      registry.counter("api.surrogate.corrupt_lines"),
      registry.counter("api.surrogate.segment_rejects")};
  return counters;
}

std::string optimize_key(api::Level level, std::uint64_t size_bytes,
                         int node_nm, api::SchemeId scheme) {
  return std::string(api::level_name(level)) + '|' +
         std::to_string(size_bytes) + '|' + std::to_string(node_nm) + '|' +
         api::scheme_id_name(scheme);
}

}  // namespace

std::unique_ptr<SurrogateStore> SurrogateStore::open(
    const std::string& dir, const std::string& fingerprint) {
  NC_REQUIRE(!dir.empty(), "surrogate directory must be non-empty");
  auto store = std::unique_ptr<SurrogateStore>(new SurrogateStore());
  store->fingerprint_ = fingerprint;
  store->content_checksum_ = fnv1a64_hex("");

  std::error_code ec;
  const auto status = std::filesystem::status(dir, ec);
  if (ec || !std::filesystem::exists(status)) {
    return store;  // no tables yet: exact fallback, not an error
  }
  NC_REQUIRE_IO(std::filesystem::is_directory(status),
                "surrogate path '" + dir + "' is not a directory");
  const std::string path = segment_path(dir, fingerprint);
  if (!std::filesystem::exists(path, ec)) {
    return store;
  }
  store->load(path);
  store->index_tables();
  return store;
}

void SurrogateStore::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return;  // racing deletion: degrade to exact

  std::string line;
  if (!std::getline(in, line)) return;  // empty file: no tables
  try {
    const auto header = json::parse(line);
    const auto magic = header->get("nanocache_surrogate");
    const auto fp = header->get("fingerprint");
    NC_REQUIRE(magic && magic->as_int() == 1 && fp &&
                   fp->as_string() == fingerprint_,
               "surrogate segment header mismatch");
    if (const auto stamp = header->get("stamp")) {
      stamp_ = stamp->as_string();
    }
  } catch (const Error&) {
    // A segment written by a different build (or garbage): reject it
    // whole rather than risk serving answers certified against another
    // model.  Never rewritten here — the store is a read-only consumer.
    store_counters().rejects.add(1);
    return;
  }

  std::string content;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const auto entry = json::parse(line);
      const auto checksum = entry->get("checksum");
      const auto table = entry->get("table");
      NC_REQUIRE(checksum && table, "surrogate entry missing fields");
      const std::string& text = table->as_string();
      NC_REQUIRE(fnv1a64_hex(text) == checksum->as_string(),
                 "surrogate entry checksum mismatch");
      OptimizeTable optimize = parse_table_json(text);
      optimizes_[optimize_key(optimize.level, optimize.size_bytes,
                              optimize.node_nm, optimize.scheme)] =
          std::move(optimize);
      content += text;
      content += '\n';
    } catch (const Error&) {
      ++corrupt_lines_;
      store_counters().corrupt.add(1);
    }
  }
  content_checksum_ = fnv1a64_hex(content);
  store_counters().tables.add(optimizes_.size());
}

void SurrogateStore::index_tables() {
  api::SurrogateErrorBounds worst{};
  for (const auto& [key, t] : optimizes_) {
    for (std::size_t i = 0; i + 1 < t.rungs.size(); ++i) {
      worst.leakage_mw =
          std::max(worst.leakage_mw, std::max(0.0, t.rungs[i].leakage_mw -
                                                       t.rungs[i + 1].leakage_mw));
    }
  }
  worst_bounds_ = worst;
}

std::optional<OptimizeAnswer> SurrogateStore::lookup_optimize(
    api::Level level, std::uint64_t size_bytes, int node_nm,
    api::SchemeId scheme, double target_ps) const {
  const auto it =
      optimizes_.find(optimize_key(level, size_bytes, node_nm, scheme));
  if (it == optimizes_.end()) return std::nullopt;
  const OptimizeTable& t = it->second;
  if (target_ps < t.rungs.front().target_ps ||
      target_ps > t.rungs.back().target_ps) {
    return std::nullopt;  // off the ladder: exact fallback
  }
  // Largest tabulated rung <= target: its design is feasible for the
  // requested target and optimal for a (possibly) tighter one.
  const auto rung_it = std::upper_bound(
      t.rungs.begin(), t.rungs.end(), target_ps,
      [](double v, const OptimizeRung& r) { return v < r.target_ps; });
  const std::size_t idx =
      static_cast<std::size_t>(rung_it - t.rungs.begin()) - 1;
  const OptimizeRung& rung = t.rungs[idx];

  OptimizeAnswer answer;
  auto& result = answer.response.result;
  result.feasible = true;
  result.leakage_mw = rung.leakage_mw;
  result.access_time_ps = rung.access_time_ps;
  result.dynamic_pj = rung.dynamic_pj;
  result.assignment = rung.assignment;

  // Exact at a rung; between rungs the true optimum is bracketed by the
  // neighboring rungs' optima (feasible sets nest), so the served leakage
  // over-estimates by at most the adjacent-rung gap.
  if (target_ps != rung.target_ps && idx + 1 < t.rungs.size()) {
    answer.bounds.leakage_mw =
        std::max(0.0, rung.leakage_mw - t.rungs[idx + 1].leakage_mw);
  }
  return answer;
}

std::vector<std::uint64_t> SurrogateStore::covered_sizes() const {
  std::set<std::uint64_t> sizes;
  for (const auto& [key, t] : optimizes_) sizes.insert(t.size_bytes);
  return {sizes.begin(), sizes.end()};
}

std::vector<int> SurrogateStore::covered_nodes() const {
  std::set<int> nodes;
  for (const auto& [key, t] : optimizes_) nodes.insert(t.node_nm);
  return {nodes.begin(), nodes.end()};
}

std::vector<std::string> SurrogateStore::covered_schemes() const {
  std::set<std::string> schemes;
  for (const auto& [key, t] : optimizes_) {
    schemes.insert(api::scheme_id_name(t.scheme));
  }
  return {schemes.begin(), schemes.end()};
}

}  // namespace nanocache::surrogate
