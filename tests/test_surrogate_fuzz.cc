// Deterministic fuzz test of surrogate segment loading: a real segment is
// cut short at every k-th byte, bit-flipped, line-spliced and given a line
// in the retired eval-table format, and each mutant is loaded with
// SurrogateStore::open.  Loading must never throw (the only exception the
// store raises is the typed kIo for a surrogate directory that is a file),
// and every optimize lookup must either return exactly the bytes the
// unmutated store returns or report "not covered", so the service falls
// back to the exact engine.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/batch_io.h"
#include "api/surrogate_precompute.h"
#include "fault_injection.h"
#include "nanocache/api.h"
#include "surrogate/store.h"
#include "util/segment.h"

namespace nanocache::testing {
namespace {

namespace fs = std::filesystem;

struct Probe {
  api::Level level;
  std::uint64_t size_bytes;
  api::SchemeId scheme;
  double target_ps;
};

/// Targets across and beyond both default ladders (L1 16KB, L2 1MB).
std::vector<Probe> probes() {
  std::vector<Probe> out;
  for (const auto& [level, size] :
       {std::pair{api::Level::kL1, std::uint64_t{16 * 1024}},
        std::pair{api::Level::kL2, std::uint64_t{1024 * 1024}}}) {
    for (const auto scheme :
         {api::SchemeId::kI, api::SchemeId::kII, api::SchemeId::kIII}) {
      for (double t = 500.0; t <= 8000.0; t += 125.0) {
        out.push_back({level, size, scheme, t});
      }
    }
  }
  return out;
}

/// Wire bytes of a lookup, or "" when the store does not cover the probe.
std::string answer_bytes(const surrogate::SurrogateStore& store,
                         const Probe& p) {
  const auto hit = store.lookup_optimize(p.level, p.size_bytes, 0, p.scheme,
                                         p.target_ps);
  if (!hit) return "";
  api::Response r;
  r.kind = api::RequestKind::kOptimize;
  r.ok = true;
  r.served_by = api::ServedBy::kSurrogate;
  r.max_error = hit->bounds;
  r.optimize = hit->response;
  return api::response_to_json(r);
}

/// An intact segment entry carrying an eval table as older builds wrote
/// them (a 2x2 knob lattice of one component).
std::string retired_eval_line() {
  std::string values;
  for (int i = 0; i < 4 * 9; ++i) {
    values += (i == 0 ? "" : ",") + std::to_string(1 + i);
  }
  const std::string table =
      "{\"kind\":\"eval\",\"level\":\"l1\",\"size_bytes\":16384,"
      "\"node_nm\":0,\"organization\":\"16KB direct-mapped\","
      "\"components\":[\"cell\"],\"vth_v\":[0.2,0.5],\"tox_a\":[10,14],"
      "\"values\":[" +
      values +
      "],\"bounds\":{\"leakage_mw\":{\"scale\":2,\"floor\":0},"
      "\"access_time_ps\":{\"scale\":2,\"floor\":0},"
      "\"dynamic_pj\":{\"scale\":2,\"floor\":0}}}";
  return segment::entry_line("l1|16384|0|eval", table);
}

TEST(SurrogateFuzz, MutatedSegmentsServeIdenticalOrFallBack) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "nanocache_surrogate_fuzz";
  fs::remove_all(dir);
  auto service = api::Service::create({});
  ASSERT_TRUE(service.ok()) << service.error().message;
  const std::string fingerprint = service.value()->configuration_fingerprint();
  api::PrecomputeOptions options;
  options.target_steps = 9;
  const auto summary =
      api::precompute_surrogate(*service.value(), dir.string(), options);
  ASSERT_GT(summary.optimize_tables, 0u);

  std::string pristine;
  {
    std::ifstream in(summary.path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto all_probes = probes();
  std::vector<std::string> expected;
  std::size_t covered = 0;
  {
    const auto store = surrogate::SurrogateStore::open(dir.string(),
                                                       fingerprint);
    for (const auto& p : all_probes) {
      expected.push_back(answer_bytes(*store, p));
      if (!expected.back().empty()) ++covered;
    }
  }
  ASSERT_GT(covered, all_probes.size() / 4);

  auto corpus = mutation_corpus(pristine, 61);
  corpus.push_back({"retired-eval-line", pristine + retired_eval_line()});
  ASSERT_GT(corpus.size(), 200u);
  std::size_t fallbacks = 0;
  for (const auto& mutant : corpus) {
    {
      std::ofstream out(summary.path, std::ios::binary | std::ios::trunc);
      out << mutant.bytes;
    }
    std::unique_ptr<surrogate::SurrogateStore> store;
    try {
      store = surrogate::SurrogateStore::open(dir.string(), fingerprint);
    } catch (const std::exception& e) {
      ADD_FAILURE() << mutant.name << " threw: " << e.what();
      continue;
    }
    for (std::size_t i = 0; i < all_probes.size(); ++i) {
      const std::string got = answer_bytes(*store, all_probes[i]);
      if (got.empty()) {
        if (!expected[i].empty()) ++fallbacks;
        continue;
      }
      ASSERT_EQ(got, expected[i]) << mutant.name << " probe " << i;
    }
    if (mutant.name == "retired-eval-line") {
      // Dropped like any other unparsable line; every ladder still serves.
      EXPECT_EQ(store->corrupt_lines(), 1u);
      EXPECT_EQ(store->optimize_tables(), summary.optimize_tables);
    }
  }
  EXPECT_GT(fallbacks, 0u);  // the corpus really did damage tables

  // The one exception loading may raise: a surrogate path that is a file.
  const auto outcome = run_fault(FaultCase{
      "surrogate-dir-is-a-file", ErrorCategory::kIo, [&] {
        (void)surrogate::SurrogateStore::open(summary.path, fingerprint);
      }});
  EXPECT_TRUE(outcome.ok) << outcome.detail;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace nanocache::testing
