// The surrogate serving tier, end to end: precompute -> store -> routed
// serving.  Covers the differential contract (every surrogate optimize
// answer is feasible and over-estimates the exact optimum by at most its
// proven bound; evals are always answered exactly, byte for byte as
// without tables), byte-stability across thread counts and table reloads,
// the v4 exactness routing matrix (exact pin, auto fallback on uncovered
// requests, typed kConfig for an uncoverable surrogate pin), the
// corruption contract (truncated/garbage tables degrade to exact serving,
// never to a wrong answer; a version-1 segment is rejected whole; only an
// unusable surrogate_dir is a typed kIo), wire round-trips of
// served_by/max_error, canonical-key exactness semantics, and the
// capabilities coverage report.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/batch_io.h"
#include "api/surrogate_precompute.h"
#include "nanocache/api.h"
#include "surrogate/tables.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace nanocache::api {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory under the GTest temp root.
fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("nanocache_" + name);
  fs::remove_all(dir);
  return dir;
}

std::shared_ptr<Service> make_service(ServiceConfig config = {}) {
  auto service = Service::create(std::move(config));
  EXPECT_TRUE(service.ok()) << service.error().message;
  return service.value();
}

/// Precompute tables for the default configuration into `dir`.  The
/// reduced ladder keeps the exact optimizer work in the milliseconds.
PrecomputeSummary precompute_into(const fs::path& dir, int target_steps = 9) {
  const auto service = make_service();
  PrecomputeOptions options;
  options.target_steps = target_steps;
  options.stamp = "test-segment";
  return precompute_surrogate(*service, dir.string(), options);
}

std::shared_ptr<Service> surrogate_service(const fs::path& dir) {
  ServiceConfig config;
  config.surrogate_dir = dir.string();
  return make_service(std::move(config));
}

Request eval_request(double vth_v, double tox_a,
                     Exactness exactness = Exactness::kAuto,
                     std::uint64_t size_bytes = 0) {
  Request r;
  r.kind = RequestKind::kEval;
  r.eval.target.size_bytes = size_bytes;
  r.eval.knobs = Knobs{vth_v, tox_a};
  r.eval.exactness = exactness;
  return r;
}

Request optimize_request(double target_ps,
                         Exactness exactness = Exactness::kAuto,
                         SchemeId scheme = SchemeId::kII,
                         std::uint64_t size_bytes = 0) {
  Request r;
  r.kind = RequestKind::kOptimize;
  r.optimize.target.size_bytes = size_bytes;
  r.optimize.scheme = scheme;
  r.optimize.delay.target_ps = target_ps;
  r.optimize.exactness = exactness;
  return r;
}

/// Sum of the api.surrogate.* routing counters.
std::uint64_t routing_counts() {
  auto& registry = metrics::Registry::instance();
  std::uint64_t total = 0;
  for (const char* name : {"api.surrogate.hits", "api.surrogate.fallbacks",
                           "api.surrogate.exact_pins",
                           "api.surrogate.rejects"}) {
    total += registry.counter(name).value();
  }
  return total;
}

/// Restores the worker-pool default on scope exit (mirrors the golden
/// tests: thread-count experiments must not leak into later tests).
class ThreadCountGuard {
 public:
  ThreadCountGuard() : before_(par::default_threads()) {}
  ~ThreadCountGuard() { par::set_default_threads(before_); }

 private:
  int before_;
};

TEST(SurrogateDifferential, EvalsAreExactWithTablesLoaded) {
  const auto dir = test_dir("diff_eval");
  ASSERT_GT(precompute_into(dir).optimize_tables, 0u);
  const auto surrogate = surrogate_service(dir);
  const auto exact_only = make_service();

  // No table covers an eval: on and off the paper's 7x5 grid (inside the
  // knob window), `auto` and `exact` answer exactly, byte for byte as a
  // table-less service does, and touch no routing counter.
  const std::vector<Knobs> knobs{{0.2, 10.0},     {0.35, 12.0},
                                 {0.5, 14.0},     {0.33, 11.7},
                                 {0.2062, 10.31}, {0.487, 13.93},
                                 {0.41, 10.06}};
  for (const auto& k : knobs) {
    for (const Exactness exactness : {Exactness::kAuto, Exactness::kExact}) {
      const std::uint64_t before = routing_counts();
      const auto served =
          surrogate->serve(eval_request(k.vth_v, k.tox_a, exactness));
      EXPECT_EQ(routing_counts(), before);
      ASSERT_TRUE(served.ok) << served.error.message;
      EXPECT_EQ(served.served_by, ServedBy::kExact);
      EXPECT_EQ(response_to_json(served),
                response_to_json(exact_only->serve(
                    eval_request(k.vth_v, k.tox_a, exactness))))
          << "vth=" << k.vth_v << " tox=" << k.tox_a;
    }
  }

  // A knob outside the advertised window is the same typed config error
  // with or without tables, and still touches no routing counter.
  for (const Exactness exactness : {Exactness::kAuto, Exactness::kExact}) {
    const std::uint64_t before = routing_counts();
    const auto served = surrogate->serve(eval_request(0.21, 9.5, exactness));
    EXPECT_EQ(routing_counts(), before);
    ASSERT_FALSE(served.ok);
    EXPECT_EQ(served.error.code, ErrorCode::kConfig);
    EXPECT_EQ(response_to_json(served),
              response_to_json(
                  exact_only->serve(eval_request(0.21, 9.5, exactness))));
  }

  // A surrogate pin on an eval is the typed reject of an uncovered request.
  const auto pinned =
      surrogate->serve(eval_request(0.35, 12.0, Exactness::kSurrogate));
  ASSERT_FALSE(pinned.ok);
  EXPECT_EQ(pinned.error.code, ErrorCode::kConfig);
}

TEST(SurrogateDifferential, OptimizeStaysFeasibleWithinLeakageBound) {
  const auto dir = test_dir("diff_opt");
  ASSERT_GT(precompute_into(dir).optimize_tables, 0u);
  const auto surrogate = surrogate_service(dir);
  auto& registry = metrics::Registry::instance();
  auto& optimize_calls = registry.counter("opt.optimize_calls");
  auto& grid_points = registry.counter("opt.grid_points_evaluated");

  const auto calls_at_start = optimize_calls.value();
  for (const SchemeId scheme :
       {SchemeId::kI, SchemeId::kII, SchemeId::kIII}) {
    for (const double target_ps : {1350.0, 1400.0, 1522.7, 1650.0}) {
      const auto calls_before = optimize_calls.value();
      const auto points_before = grid_points.value();
      const auto sur = surrogate->serve(
          optimize_request(target_ps, Exactness::kAuto, scheme));
      ASSERT_TRUE(sur.ok) << sur.error.message;
      // Every target is on a tabulated ladder: losing that coverage would
      // leave the checks below with nothing to check.
      ASSERT_EQ(sur.served_by, ServedBy::kSurrogate) << target_ps;
      // A table lookup runs no optimizer: no call, no grid point.
      EXPECT_EQ(optimize_calls.value(), calls_before) << target_ps;
      EXPECT_EQ(grid_points.value(), points_before) << target_ps;
      const auto exact = surrogate->serve(
          optimize_request(target_ps, Exactness::kExact, scheme));
      ASSERT_TRUE(exact.ok && exact.optimize.result.feasible);
      // The served design is feasible for the request and its leakage
      // over-estimates the true optimum by at most the proven bound.
      EXPECT_LE(sur.optimize.result.access_time_ps, target_ps);
      EXPECT_EQ(sur.max_error.access_time_ps, 0.0);
      EXPECT_EQ(sur.max_error.dynamic_pj, 0.0);
      const double excess =
          sur.optimize.result.leakage_mw - exact.optimize.result.leakage_mw;
      EXPECT_GE(excess, -1e-12);
      EXPECT_LE(excess, sur.max_error.leakage_mw + 1e-12);
    }
  }
  // The exact answers did run the optimizer, so the counters are live.
  EXPECT_GT(optimize_calls.value(), calls_at_start);
}

TEST(SurrogateDifferential, ByteStableAcrossThreadCountsAndReload) {
  const auto dir = test_dir("diff_stable");
  precompute_into(dir);

  std::vector<Request> workload;
  workload.push_back(eval_request(0.33, 11.7));
  workload.push_back(eval_request(0.35, 12.0));
  workload.push_back(optimize_request(1400.0));
  workload.push_back(optimize_request(1522.7, Exactness::kAuto, SchemeId::kI));
  workload.push_back(eval_request(0.41, 10.06, Exactness::kExact));
  for (std::size_t i = 0; i < workload.size(); ++i) {
    workload[i].id = "q" + std::to_string(i);
  }
  const auto serialized = [&](const BatchResult& batch) {
    std::string bytes;
    for (const auto& response : batch.responses) {
      bytes += response_to_json(response);
      bytes += '\n';
    }
    return bytes;
  };

  ThreadCountGuard guard;
  par::set_default_threads(1);
  const std::string at_one = serialized(surrogate_service(dir)->run_batch(workload));
  par::set_default_threads(8);
  const std::string at_eight =
      serialized(surrogate_service(dir)->run_batch(workload));
  EXPECT_EQ(at_one, at_eight);

  // A second store loaded from the same segment serves the same bytes.
  const std::string reloaded =
      serialized(surrogate_service(dir)->run_batch(workload));
  EXPECT_EQ(at_eight, reloaded);
  EXPECT_NE(at_one.find("\"served_by\":\"surrogate\""), std::string::npos);
}

TEST(SurrogateRouting, FallbackAndRejectMatrix) {
  const auto dir = test_dir("routing");
  precompute_into(dir);
  const auto service = surrogate_service(dir);

  // Covered + auto: surrogate with bounds on the wire.
  const auto covered = service->serve(optimize_request(1522.7));
  ASSERT_TRUE(covered.ok) << covered.error.message;
  EXPECT_EQ(covered.served_by, ServedBy::kSurrogate);

  // Exact pin: the exact engine answers even though a table covers it.
  const auto pinned =
      service->serve(optimize_request(1522.7, Exactness::kExact));
  ASSERT_TRUE(pinned.ok);
  EXPECT_EQ(pinned.served_by, ServedBy::kExact);

  // Untabulated size: silent exact fallback under auto.
  const auto odd_size = service->serve(
      optimize_request(1522.7, Exactness::kAuto, SchemeId::kII, 8 * 1024));
  ASSERT_TRUE(odd_size.ok) << odd_size.error.message;
  EXPECT_EQ(odd_size.served_by, ServedBy::kExact);

  // A target beyond the ladder: exact fallback, not an extrapolation.
  const auto off_ladder = service->serve(optimize_request(1.0e5));
  ASSERT_TRUE(off_ladder.ok) << off_ladder.error.message;
  EXPECT_EQ(off_ladder.served_by, ServedBy::kExact);

  // Power gating is never tabulated: exact fallback under auto.
  Request gated = optimize_request(1400.0);
  gated.optimize.power_gating.enabled = true;
  gated.optimize.power_gating.perf_loss_budget = 0.1;
  const auto gated_out = service->serve(gated);
  ASSERT_TRUE(gated_out.ok) << gated_out.error.message;
  EXPECT_EQ(gated_out.served_by, ServedBy::kExact);

  // A surrogate pin that nothing covers is a typed config error...
  const auto rejected = service->serve(optimize_request(
      1522.7, Exactness::kSurrogate, SchemeId::kII, 8 * 1024));
  ASSERT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error.code, ErrorCode::kConfig);
  // ... and so is any surrogate pin when no tables were ever loaded.
  ServiceConfig no_tables;
  no_tables.surrogate_dir = test_dir("routing_missing").string();
  const auto empty_store = make_service(std::move(no_tables));
  const auto no_cover = empty_store->serve(
      optimize_request(1522.7, Exactness::kSurrogate));
  ASSERT_FALSE(no_cover.ok);
  EXPECT_EQ(no_cover.error.code, ErrorCode::kConfig);
  // Auto against the empty store serves exact without complaint.
  const auto degraded = empty_store->serve(optimize_request(1522.7));
  ASSERT_TRUE(degraded.ok);
  EXPECT_EQ(degraded.served_by, ServedBy::kExact);
}

TEST(SurrogateCorruption, DamagedTablesDegradeToExactNeverWrong) {
  const auto dir = test_dir("corrupt");
  precompute_into(dir);
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  std::ifstream in(segment);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 3u);

  // Segment lines after the header: L1 ladders for schemes I, II, III.
  const Request scheme_ii = optimize_request(1522.7);
  const Request scheme_iii =
      optimize_request(1522.7, Exactness::kAuto, SchemeId::kIII);
  const auto exact_bytes = [&] {
    const auto r = make_service()->serve(scheme_ii);
    EXPECT_TRUE(r.ok);
    return response_to_json(r);
  }();

  // Truncate mid-line, flip a checksummed byte, and append garbage: every
  // damaged line is dropped; surviving tables still serve, and anything
  // uncovered falls back to byte-identical exact answers.
  {
    std::ofstream out(segment, std::ios::trunc);
    out << lines[0] << "\n";
    out << lines[1].substr(0, lines[1].size() / 2) << "\n";
    std::string flipped = lines[2];
    flipped[flipped.size() / 2] ^= 1;
    out << flipped << "\n";
    out << "{\"this is\": \"not a table\"}\n" << "garbage\n";
    for (std::size_t i = 3; i < lines.size(); ++i) out << lines[i] << "\n";
  }
  const auto damaged = surrogate_service(dir);
  const auto served = damaged->serve(scheme_ii);
  ASSERT_TRUE(served.ok);
  EXPECT_EQ(served.served_by, ServedBy::kExact);
  EXPECT_EQ(response_to_json(served), exact_bytes);
  EXPECT_EQ(damaged->serve(scheme_iii).served_by, ServedBy::kSurrogate);

  // A header from some other configuration rejects the whole segment.
  {
    std::ofstream out(segment, std::ios::trunc);
    out << "{\"nanocache_surrogate\":2,\"fingerprint\":"
           "\"ffffffffffffffff\",\"stamp\":\"stale\"}\n";
    for (std::size_t i = 1; i < lines.size(); ++i) out << lines[i] << "\n";
  }
  const auto stale = surrogate_service(dir);
  const auto after_reject = stale->serve(scheme_ii);
  ASSERT_TRUE(after_reject.ok);
  EXPECT_EQ(after_reject.served_by, ServedBy::kExact);
  EXPECT_EQ(response_to_json(after_reject), exact_bytes);
  // The reader never rewrites a rejected segment (read-only consumer).
  std::ifstream reread(segment);
  std::string first;
  std::getline(reread, first);
  EXPECT_NE(first.find("ffffffffffffffff"), std::string::npos);
}

TEST(SurrogateCorruption, VersionOneSegmentIsRejected) {
  const auto dir = test_dir("surrogate_version_one");
  const auto summary = precompute_into(dir);
  const Request request = optimize_request(1522.7);
  ASSERT_EQ(surrogate_service(dir)->serve(request).served_by,
            ServedBy::kSurrogate);

  // The same tables in the version-1 layout: header version 1 and entries
  // {"checksum","table"}, each checksum valid under the old rule.
  std::string rewritten = "{\"nanocache_surrogate\":1,\"fingerprint\":" +
                          json::quote(summary.fingerprint) +
                          ",\"stamp\":\"test-segment\"}\n";
  {
    std::ifstream in(summary.path);
    std::string line;
    std::getline(in, line);
    while (std::getline(in, line)) {
      const std::string table = json::parse(line)->get("value")->as_string();
      rewritten += "{\"checksum\":" + json::quote(fnv1a64_hex(table)) +
                   ",\"table\":" + json::quote(table) + "}\n";
    }
  }
  std::ofstream(summary.path, std::ios::trunc) << rewritten;

  auto& rejects =
      metrics::Registry::instance().counter("api.surrogate.segment_rejects");
  const auto rejects_before = rejects.value();
  const auto service = surrogate_service(dir);
  EXPECT_EQ(rejects.value(), rejects_before + 1);
  const auto served = service->serve(request);
  ASSERT_TRUE(served.ok);
  EXPECT_EQ(served.served_by, ServedBy::kExact);
  EXPECT_EQ(response_to_json(served),
            response_to_json(make_service()->serve(request)));
}

TEST(SurrogateCorruption, OutOfRangeNodeIsAConfigError) {
  const auto table = [](const std::string& node) {
    return "{\"kind\":\"optimize\",\"level\":\"l2\",\"size_bytes\":"
           "262144,\"node_nm\":" +
           node +
           ",\"scheme\":\"II\",\"rungs\":[{\"target_ps\":1500,"
           "\"leakage_mw\":1,\"access_time_ps\":1400,\"dynamic_pj\":1,"
           "\"assignment\":[]}]}";
  };
  // 2^32 + 65 would wrap to 65 if narrowed unchecked.
  for (const char* node : {"4294967361", "-4294967296"}) {
    try {
      surrogate::parse_table_json(table(node));
      ADD_FAILURE() << "expected an error for node_nm " << node;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kConfig) << node;
    }
  }
  EXPECT_EQ(surrogate::parse_table_json(table("65")).node_nm, 65);
}

TEST(SurrogateCorruption, UnusableDirectoryIsTypedIo) {
  const auto path = test_dir("not_a_dir");
  std::ofstream(path.string()) << "a file, not a directory\n";
  ServiceConfig config;
  config.surrogate_dir = path.string();
  const auto service = Service::create(std::move(config));
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.error().code, ErrorCode::kIo);
}

TEST(SurrogateWire, ServedByAndBoundsRoundTripExactly) {
  const auto dir = test_dir("wire");
  precompute_into(dir);
  const auto service = surrogate_service(dir);
  for (const Request& request :
       {eval_request(0.33, 11.7), optimize_request(1522.7),
        eval_request(0.35, 12.0, Exactness::kExact)}) {
    const auto response = service->serve(request);
    ASSERT_TRUE(response.ok);
    const std::string bytes = response_to_json(response);
    const auto parsed = parse_response_json(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed->served_by, response.served_by);
    EXPECT_EQ(parsed->max_error.leakage_mw, response.max_error.leakage_mw);
    EXPECT_EQ(parsed->max_error.access_time_ps,
              response.max_error.access_time_ps);
    EXPECT_EQ(parsed->max_error.dynamic_pj, response.max_error.dynamic_pj);
    EXPECT_EQ(response_to_json(parsed.value()), bytes);
  }
}

TEST(SurrogateWire, DiskCacheReplaysSurrogateAnswersByteIdentically) {
  const auto tables = test_dir("replay_tables");
  const auto cache = test_dir("replay_cache");
  precompute_into(tables);
  const auto request = optimize_request(1522.7);

  ServiceConfig cold_config;
  cold_config.surrogate_dir = tables.string();
  cold_config.cache_dir = cache.string();
  const auto cold = make_service(std::move(cold_config));
  const auto first = cold->serve(request);
  ASSERT_TRUE(first.ok);
  ASSERT_EQ(first.served_by, ServedBy::kSurrogate);
  cold->flush_disk_cache();

  ServiceConfig warm_config;
  warm_config.surrogate_dir = tables.string();
  warm_config.cache_dir = cache.string();
  const auto warm = make_service(std::move(warm_config));
  const auto replayed = warm->serve(request);
  ASSERT_TRUE(replayed.ok);
  EXPECT_EQ(response_to_json(replayed), response_to_json(first));
  EXPECT_EQ(replayed.served_by, ServedBy::kSurrogate);
  EXPECT_EQ(replayed.max_error.leakage_mw, first.max_error.leakage_mw);
}

TEST(SurrogateWire, CanonicalKeyIgnoresAutoButPinsExactness) {
  const auto parse = [](const std::string& line) {
    const auto parsed = parse_request_json(line);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message;
    return parsed.value();
  };
  const Request v3 = parse("{\"schema_version\":3,\"kind\":\"eval\"}");
  const Request spelled_auto = parse(
      "{\"schema_version\":4,\"kind\":\"eval\",\"exactness\":\"auto\"}");
  const Request pinned_exact = parse(
      "{\"schema_version\":4,\"kind\":\"eval\",\"exactness\":\"exact\"}");
  const Request pinned_surrogate = parse(
      "{\"schema_version\":4,\"kind\":\"eval\",\"exactness\":\"surrogate\"}");
  // auto-vs-absent is the same structural request (shared memo/disk/batch
  // entries); an exactness pin is a different one.
  EXPECT_EQ(request_canonical_key(v3), request_canonical_key(spelled_auto));
  EXPECT_NE(request_canonical_key(v3), request_canonical_key(pinned_exact));
  EXPECT_NE(request_canonical_key(v3),
            request_canonical_key(pinned_surrogate));
  EXPECT_NE(request_canonical_key(pinned_exact),
            request_canonical_key(pinned_surrogate));

  // An auto request never serializes the field, so pre-v4 bytes are stable.
  Request round = v3;
  EXPECT_EQ(request_to_json(round).find("exactness"), std::string::npos);
  EXPECT_NE(request_to_json(pinned_exact).find("\"exactness\":\"exact\""),
            std::string::npos);
}

TEST(SurrogateCapabilities, ReportsCoverageAndBounds) {
  const auto dir = test_dir("caps");
  const auto summary = precompute_into(dir);
  const auto service = surrogate_service(dir);
  const auto caps = service->capabilities({});
  ASSERT_TRUE(caps.ok());
  const auto& c = caps.value();
  EXPECT_TRUE(c.surrogate_loaded);
  EXPECT_EQ(c.surrogate_optimize_tables,
            static_cast<int>(summary.optimize_tables));
  EXPECT_EQ(c.surrogate_fingerprint, service->configuration_fingerprint());
  EXPECT_EQ(c.surrogate_stamp, "test-segment");
  EXPECT_EQ(c.surrogate_sizes_bytes,
            (std::vector<std::uint64_t>{16 * 1024, 1024 * 1024}));
  EXPECT_EQ(c.surrogate_nodes_nm, std::vector<int>{0});
  EXPECT_EQ(c.surrogate_schemes,
            (std::vector<std::string>{"I", "II", "III"}));
  // Only a ladder's leakage is bounded away from zero: a served design's
  // access time and dynamic energy are its own exact values.
  EXPECT_GT(c.surrogate_max_error_leakage_mw, 0.0);
  EXPECT_EQ(c.surrogate_max_error_access_time_ps, 0.0);
  EXPECT_EQ(c.surrogate_max_error_dynamic_pj, 0.0);

  // An exact-only service keeps the section, all-off.
  const auto exact_caps = make_service()->capabilities({});
  ASSERT_TRUE(exact_caps.ok());
  EXPECT_FALSE(exact_caps.value().surrogate_loaded);
  EXPECT_EQ(exact_caps.value().surrogate_optimize_tables, 0);
}

}  // namespace
}  // namespace nanocache::api
