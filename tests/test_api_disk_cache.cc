// Persistent cross-run result cache: cold/warm reuse with byte-identical
// responses, the corruption contract (truncated segment, garbage lines,
// checksum mismatches, and stale fingerprints degrade to recomputation —
// never to a wrong answer), typed kIo surfacing for an unusable directory,
// the v1 -> v2 schema normalization goldens, the canonical-key edge cases
// (an unsupported schema_version never shares a key; a non-finite double
// has none), and the parse_response_json round-trip exactness the disk hit
// path depends on.  A version-1 segment resets.  Appends go through
// one open segment descriptor: many stores, serial or from racing threads,
// reopen byte-identically, and a failed write degrades the cache to
// memory-only.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/batch_io.h"
#include "api/disk_cache.h"
#include "nanocache/api.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/metrics.h"

namespace nanocache::api {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test cache directory under the GTest temp root.
fs::path test_cache_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("nanocache_" + name);
  fs::remove_all(dir);
  return dir;
}

std::shared_ptr<Service> make_service(ServiceConfig config = {}) {
  auto service = Service::create(std::move(config));
  EXPECT_TRUE(service.ok()) << service.error().message;
  return service.value();
}

/// A small mixed workload (kept fast: evals plus two optimizations).
std::vector<Request> small_workload() {
  std::vector<Request> requests;
  int next_id = 0;
  const auto push = [&](Request r) {
    r.id = "q" + std::to_string(next_id++);
    requests.push_back(std::move(r));
  };
  for (const double vth : {0.25, 0.35, 0.45}) {
    Request r;
    r.kind = RequestKind::kEval;
    r.eval.knobs = Knobs{vth, 12.0};
    push(std::move(r));
  }
  for (const double ps : {1400.0, 1600.0}) {
    Request r;
    r.kind = RequestKind::kOptimize;
    r.optimize.scheme = SchemeId::kII;
    r.optimize.delay.target_ps = ps;
    push(std::move(r));
  }
  return requests;
}

std::string serialized(const BatchResult& batch) {
  std::string bytes;
  for (const auto& response : batch.responses) {
    bytes += response_to_json(response);
    bytes += '\n';
  }
  return bytes;
}

/// The one segment file a cached run produced (fingerprint is internal, so
/// tests locate it by the documented naming pattern).
fs::path segment_path(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto name = entry.path().filename().string();
    if (name.rfind("nanocache-", 0) == 0) return entry.path();
  }
  ADD_FAILURE() << "no cache segment found in " << dir;
  return {};
}

/// Serve the workload through a fresh service bound to `dir` and return
/// (serialized bytes, batch stats).
BatchResult run_cached(const fs::path& dir,
                       const std::vector<Request>& workload) {
  ServiceConfig config;
  config.cache_dir = dir.string();
  return make_service(std::move(config))->run_batch(workload);
}

TEST(ApiDiskCache, ColdThenWarmRunIsByteIdenticalAndHits) {
  const auto dir = test_cache_dir("reuse");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));

  const auto cold = run_cached(dir, workload);
  EXPECT_EQ(cold.stats.disk_hits, 0u);
  EXPECT_EQ(cold.stats.disk_misses, workload.size());  // no duplicates here
  EXPECT_EQ(serialized(cold), reference);

  const auto warm = run_cached(dir, workload);
  EXPECT_EQ(warm.stats.disk_hits, workload.size());
  EXPECT_EQ(warm.stats.disk_misses, 0u);
  // The headline contract: a disk hit serves the same bytes the original
  // computation (and an uncached service) produced.
  EXPECT_EQ(serialized(warm), reference);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, TruncatedSegmentFallsBackToComputation) {
  const auto dir = test_cache_dir("truncated");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));
  run_cached(dir, workload);

  // Chop the file mid-entry, as a crash mid-append would.
  const auto path = segment_path(dir);
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - size / 3);

  const auto after = run_cached(dir, workload);
  EXPECT_EQ(serialized(after), reference);
  // The intact prefix still hits; the severed tail recomputes.
  EXPECT_LT(after.stats.disk_hits, workload.size());
  EXPECT_GT(after.stats.disk_misses, 0u);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, GarbageLinesAreSkippedNeverServed) {
  const auto dir = test_cache_dir("garbage");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));
  run_cached(dir, workload);

  {
    std::ofstream out(segment_path(dir), std::ios::app);
    out << "this is not a cache entry\n"
        << "{\"key\":\"missing the other fields\"}\n";
  }
  const auto after = run_cached(dir, workload);
  EXPECT_EQ(serialized(after), reference);
  EXPECT_EQ(after.stats.disk_hits, workload.size());
  fs::remove_all(dir);
}

TEST(ApiDiskCache, ChecksumMismatchDropsTheEntry) {
  const auto dir = test_cache_dir("checksum");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));
  run_cached(dir, workload);

  // Flip response bytes inside one entry without touching its checksum: a
  // bit-rotted answer must be dropped, not served.
  const auto path = segment_path(dir);
  std::string contents;
  {
    std::ifstream in(path);
    std::string line;
    bool corrupted = false;
    while (std::getline(in, line)) {
      const auto pos = line.find("leakage_mw");
      if (!corrupted && pos != std::string::npos) {
        line.replace(pos, 10, "leakage_MW");
        corrupted = true;
      }
      contents += line;
      contents += '\n';
    }
    EXPECT_TRUE(corrupted);
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  }

  const auto after = run_cached(dir, workload);
  EXPECT_EQ(serialized(after), reference);
  EXPECT_EQ(after.stats.disk_hits, workload.size() - 1);
  EXPECT_EQ(after.stats.disk_misses, 1u);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, StaleFingerprintResetsTheSegment) {
  const auto dir = test_cache_dir("stale");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));
  run_cached(dir, workload);

  // Rewrite the header with a different fingerprint: the segment now claims
  // to answer for another configuration and must be discarded whole.
  const auto path = segment_path(dir);
  std::string contents;
  {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    contents += "{\"nanocache_cache\":2,\"fingerprint\":\"";
    contents += fnv1a64_hex("a different configuration");
    contents += "\"}\n";
    while (std::getline(in, line)) {
      contents += line;
      contents += '\n';
    }
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  }

  const auto after = run_cached(dir, workload);
  EXPECT_EQ(serialized(after), reference);
  EXPECT_EQ(after.stats.disk_hits, 0u);
  EXPECT_EQ(after.stats.disk_misses, workload.size());
  // And the reset re-populated the segment: the next run hits again.
  const auto warm = run_cached(dir, workload);
  EXPECT_EQ(warm.stats.disk_hits, workload.size());
  EXPECT_EQ(serialized(warm), reference);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, VersionOneSegmentIsReset) {
  const auto dir = test_cache_dir("version_one");
  const auto workload = small_workload();
  const std::string reference = serialized(make_service()->run_batch(workload));
  run_cached(dir, workload);

  // A version-1 segment for this very fingerprint, in the old entry shape
  // {"key","checksum","response"} with a valid old-style checksum — and a
  // wrong answer filed under the first request's current key.  Version 2
  // must reset it whole, never read that entry.
  const auto path = segment_path(dir);
  std::string fingerprint;
  {
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    const auto at = header.find("\"fingerprint\":\"") + 15;
    fingerprint = header.substr(at, 16);
  }
  const std::string key = request_canonical_key(workload[0]);
  const std::string poisoned =
      response_to_json(make_service()->serve(workload[1]));
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"nanocache_cache\":1,\"fingerprint\":\"" << fingerprint
        << "\"}\n"
        << "{\"key\":" << json::quote(key) << ",\"checksum\":\""
        << fnv1a64_hex(key + '\n' + poisoned)
        << "\",\"response\":" << json::quote(poisoned) << "}\n";
  }

  auto& resets =
      metrics::Registry::instance().counter("api.disk.segment_resets");
  const auto resets_before = resets.value();
  const auto after = run_cached(dir, workload);
  EXPECT_EQ(resets.value(), resets_before + 1);
  EXPECT_EQ(after.stats.disk_hits, 0u);
  EXPECT_EQ(serialized(after), reference);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("{\"nanocache_cache\":2,", 0), 0u) << header;
  fs::remove_all(dir);
}

TEST(ApiDiskCache, DifferentConfigurationsUseDifferentSegments) {
  const auto dir = test_cache_dir("fingerprints");
  const auto workload = small_workload();
  run_cached(dir, workload);

  ServiceConfig fitted;
  fitted.cache_dir = dir.string();
  fitted.use_fitted_models = true;
  const auto other = make_service(std::move(fitted))->run_batch(workload);
  // A differently configured service never reads the structural segment.
  EXPECT_EQ(other.stats.disk_hits, 0u);

  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segments;
  }
  EXPECT_EQ(segments, 2u);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, UnusableDirectoryIsATypedIoError) {
  // A path through a regular file cannot become a directory (works even
  // when running as root, unlike permission bits).
  const auto dir = test_cache_dir("unusable");
  fs::create_directories(dir);
  { std::ofstream block((dir / "blocker").string()); }

  ServiceConfig config;
  config.cache_dir = (dir / "blocker" / "sub").string();
  const auto outcome = Service::create(std::move(config));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kIo);
  fs::remove_all(dir);
}

TEST(ApiDiskCache, ManyStoresReopenToByteIdenticalEntries) {
  // Every store appends through the one segment descriptor the cache holds
  // open; a reopen must load each entry back byte for byte.
  const auto dir = test_cache_dir("many_stores");
  const std::string fingerprint = "0123456789abcdef";
  std::vector<std::pair<std::string, std::string>> stored;
  for (int i = 0; i < 400; ++i) {
    stored.emplace_back(
        "key|" + std::to_string(i),
        "{\"result\":{\"v\":" + std::to_string(i * 7) +
            ",\"note\":\"quote \\\" tab \\t " + std::string(i % 97, 'x') +
            "\"}}");
  }
  {
    const auto cache = DiskCache::open(dir.string(), fingerprint);
    for (const auto& [key, response] : stored) cache->store(key, response);
    cache->store(stored[0].first, "a racing duplicate never overwrites");
    EXPECT_EQ(cache->stores(), stored.size());
    EXPECT_EQ(cache->flush(), stored.size());
  }
  std::ifstream in(segment_path(dir));
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, stored.size() + 1);  // header + one line per entry

  const auto reopened = DiskCache::open(dir.string(), fingerprint);
  EXPECT_EQ(reopened->corrupt_lines(), 0u);
  EXPECT_EQ(reopened->entries(), stored.size());
  for (const auto& [key, response] : stored) {
    const auto hit = reopened->lookup(key);
    ASSERT_TRUE(hit.has_value()) << key;
    EXPECT_EQ(*hit, response);
  }
  fs::remove_all(dir);
}

TEST(ApiDiskCache, ConcurrentStoresReopenIntact) {
  // Appends run outside the cache's lock: eight threads storing distinct
  // ~1 KB entries, plus one key they all race, must leave a segment whose
  // every line reloads intact, with the raced key written once.
  const auto dir = test_cache_dir("concurrent_stores");
  const std::string fingerprint = "00112233aabbccdd";
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  const auto value_of = [](int t, int i) {
    return "{\"v\":" + std::to_string(t * kPerThread + i) + ",\"pad\":\"" +
           std::string(1000, static_cast<char>('a' + (t + i) % 26)) + "\"}";
  };
  std::vector<std::string> shared_values(kThreads);
  {
    const auto cache = DiskCache::open(dir.string(), fingerprint);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (int i = 0; i < kPerThread; ++i) {
          cache->store("key|" + std::to_string(t) + "|" + std::to_string(i),
                       value_of(t, i));
          if (i == kPerThread / 2) {
            shared_values[t] = "{\"shared\":" + std::to_string(t) + "}";
            cache->store("shared", shared_values[t]);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(cache->stores(), kThreads * kPerThread + 1u);
    EXPECT_EQ(cache->flush(), kThreads * kPerThread + 1u);
  }

  const auto reopened = DiskCache::open(dir.string(), fingerprint);
  EXPECT_EQ(reopened->corrupt_lines(), 0u);
  EXPECT_EQ(reopened->entries(), kThreads * kPerThread + 1u);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const auto hit = reopened->lookup("key|" + std::to_string(t) + "|" +
                                        std::to_string(i));
      ASSERT_TRUE(hit.has_value()) << t << "/" << i;
      EXPECT_EQ(*hit, value_of(t, i));
    }
  }
  const auto shared = reopened->lookup("shared");
  ASSERT_TRUE(shared.has_value());
  EXPECT_NE(std::find(shared_values.begin(), shared_values.end(), *shared),
            shared_values.end());
  fs::remove_all(dir);
}

TEST(ApiDiskCache, FailedWriteDegradesToMemoryOnly) {
  // Cap the process's file size at the segment's current size so the next
  // append fails (EFBIG; SIGXFSZ ignored) without any test hook in the
  // cache itself.
  const auto dir = test_cache_dir("write_failure");
  const auto cache = DiskCache::open(dir.string(), "fedcba9876543210");
  cache->store("kept", "{\"v\":1}");
  auto& write_errors =
      metrics::Registry::instance().counter("api.disk.write_errors");
  const auto errors_before = write_errors.value();
  const auto size_before = fs::file_size(cache->path());

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto previous = std::signal(SIGXFSZ, SIG_IGN);
  rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(size_before);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  cache->store("lost", "{\"v\":2}");
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, previous);

  EXPECT_EQ(write_errors.value(), errors_before + 1);
  // The answer still serves from memory, and the cache stops appending
  // for the rest of the run even once writes would succeed again.
  EXPECT_EQ(cache->lookup("lost").value_or(""), "{\"v\":2}");
  cache->store("after", "{\"v\":3}");
  EXPECT_EQ(cache->lookup("after").value_or(""), "{\"v\":3}");
  EXPECT_EQ(cache->stores(), 3u);
  EXPECT_EQ(fs::file_size(cache->path()), size_before);
  EXPECT_EQ(write_errors.value(), errors_before + 1);

  const auto reopened = DiskCache::open(dir.string(), "fedcba9876543210");
  EXPECT_EQ(reopened->corrupt_lines(), 0u);
  EXPECT_EQ(reopened->entries(), 1u);
  EXPECT_TRUE(reopened->lookup("kept").has_value());
  fs::remove_all(dir);
}

TEST(ApiDiskCache, ExhaustiveSearchModeIsByteIdentical) {
  // The differential oracle wired through the public config: both engines
  // serve the same bytes (the pruned engine's correctness contract), over
  // the small workload, the scheme-comparison sweep, and one optimize per
  // v3 design-space axis: explicit associativities, banks, two non-default
  // nodes, fully associative (generous target: the FA tag broadcast is
  // slow by design) and power gating.
  auto workload = small_workload();
  Request sweep;
  sweep.id = "sweep";
  sweep.kind = RequestKind::kSweep;
  sweep.sweep.kind = SweepKind::kSchemes;
  workload.push_back(std::move(sweep));
  struct Point {
    int associativity;    // 0 = default organization, -1 = fully associative
    std::uint32_t banks;  // 0 = default single bank
    int node_nm;          // 0 = default technology
    bool gated;
    double target_ps;
  };
  for (const Point& p : {Point{2, 0, 0, false, 3000.0},
                         Point{4, 2, 0, false, 3000.0},
                         Point{8, 0, 45, false, 3000.0},
                         Point{1, 4, 32, false, 3000.0},
                         Point{-1, 0, 0, false, 200000.0},
                         Point{0, 0, 0, true, 1400.0}}) {
    Request r;
    r.id = "v3-" + std::to_string(workload.size());
    r.kind = RequestKind::kOptimize;
    r.optimize.scheme = SchemeId::kI;
    r.optimize.delay.target_ps = p.target_ps;
    r.optimize.organization.associativity = p.associativity;
    r.optimize.organization.banks = p.banks;
    r.optimize.node_nm = p.node_nm;
    r.optimize.power_gating.enabled = p.gated;
    if (p.gated) r.optimize.power_gating.perf_loss_budget = 0.1;
    workload.push_back(std::move(r));
  }
  const auto pruned = make_service()->run_batch(workload);
  ServiceConfig config;
  config.exhaustive_search = true;
  const auto exhaustive = make_service(std::move(config))->run_batch(workload);
  for (const auto& response : pruned.responses) {
    EXPECT_TRUE(response.ok) << response.id << ": " << response.error.message;
  }
  EXPECT_EQ(serialized(pruned), serialized(exhaustive));
}

TEST(ApiV1Compat, V1RequestsNormalizeToV2AndAnswerIdentically) {
  // One golden per kind, in the v1 flat spelling.
  const std::vector<std::string> v1_lines = {
      "{\"schema_version\":1,\"id\":\"e\",\"kind\":\"eval\",\"level\":\"l1\","
      "\"size_bytes\":16384,\"vth_v\":0.3,\"tox_a\":13}",
      "{\"schema_version\":1,\"id\":\"o\",\"kind\":\"optimize\",\"level\":"
      "\"l1\",\"size_bytes\":16384,\"scheme\":\"II\",\"delay_ps\":1500}",
      "{\"schema_version\":1,\"id\":\"s\",\"kind\":\"sweep\",\"sweep\":"
      "\"schemes\",\"cache_size_bytes\":16384,\"delay_targets_ps\":[1500]}",
      "{\"schema_version\":1,\"id\":\"t\",\"kind\":\"tuple_menu\",\"num_tox\":"
      "2,\"num_vth\":2,\"amat_targets_ps\":[1700]}",
  };
  // The same requests in the v2 nested spelling.
  const std::vector<std::string> v2_lines = {
      "{\"schema_version\":2,\"id\":\"e\",\"kind\":\"eval\",\"target\":"
      "{\"level\":\"l1\",\"size_bytes\":16384},\"knobs\":{\"vth_v\":0.3,"
      "\"tox_a\":13}}",
      "{\"schema_version\":2,\"id\":\"o\",\"kind\":\"optimize\",\"target\":"
      "{\"level\":\"l1\",\"size_bytes\":16384},\"scheme\":\"II\",\"delay\":"
      "{\"target_ps\":1500}}",
      "{\"schema_version\":2,\"id\":\"s\",\"kind\":\"sweep\",\"sweep\":"
      "\"schemes\",\"target\":{\"size_bytes\":16384},\"delay\":"
      "{\"targets_ps\":[1500]}}",
      "{\"schema_version\":2,\"id\":\"t\",\"kind\":\"tuple_menu\",\"num_tox\":"
      "2,\"num_vth\":2,\"delay\":{\"targets_ps\":[1700]}}",
  };

  const auto service = make_service();
  for (std::size_t i = 0; i < v1_lines.size(); ++i) {
    const auto v1 = parse_request_json(v1_lines[i]);
    ASSERT_TRUE(v1.ok()) << v1.error().message << " for " << v1_lines[i];
    const auto v2 = parse_request_json(v2_lines[i]);
    ASSERT_TRUE(v2.ok()) << v2.error().message << " for " << v2_lines[i];

    // Normalization: a parsed v1 request IS a v2 request — same serialized
    // bytes, same canonical key, same response bytes.
    EXPECT_EQ(v1.value().schema_version, kSchemaVersion);
    EXPECT_EQ(request_to_json(v1.value()), request_to_json(v2.value()));
    EXPECT_EQ(request_canonical_key(v1.value()),
              request_canonical_key(v2.value()));
    EXPECT_EQ(response_to_json(service->serve(v1.value())),
              response_to_json(service->serve(v2.value())));
  }
}

TEST(ApiV1Compat, UnsupportedVersionsQuoteTheSupportedRange) {
  const auto parsed =
      parse_request_json("{\"schema_version\":99,\"kind\":\"eval\"}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("1..4"), std::string::npos)
      << parsed.error().message;
}

TEST(ApiCanonicalKey, UnsupportedVersionNeverSharesASupportedKey) {
  Request v4;
  v4.kind = RequestKind::kEval;
  v4.eval.knobs = Knobs{0.3, 13.0};
  Request v99 = v4;
  v99.schema_version = 99;
  EXPECT_NE(request_canonical_key(v99), request_canonical_key(v4));

  // Batch dedup: the v99 copy gets its own error, not v4's answer.
  const auto batch = make_service()->run_batch({v4, v99});
  EXPECT_EQ(batch.stats.unique_requests, 2u);
  EXPECT_TRUE(batch.responses[0].ok);
  ASSERT_FALSE(batch.responses[1].ok);
  EXPECT_NE(batch.responses[1].error.message.find("schema_version 99"),
            std::string::npos);

  // Disk tier: with v4's answer persisted, v99 misses and errs.
  const auto dir = test_cache_dir("unsupported_version");
  run_cached(dir, {v4});
  const auto warm = run_cached(dir, {v99, v4});
  EXPECT_EQ(warm.stats.disk_hits, 1u);  // v4 only
  EXPECT_EQ(response_to_json(warm.responses[0]),
            response_to_json(batch.responses[1]));
  fs::remove_all(dir);
}

TEST(ApiCanonicalKey, NonFiniteDoublesAnswerInBandWithACacheDir) {
  // Reachable only from C++: the wire cannot spell NaN or Inf.  Such a
  // request has no canonical line, so it is neither deduped nor persisted,
  // and it gets the answer an uncached service gives — never an exception.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Request> requests;
  {
    Request r;
    r.kind = RequestKind::kEval;
    r.eval.knobs = Knobs{nan, 12.0};
    requests.push_back(r);
    r.eval.knobs = Knobs{0.3, inf};
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kOptimize;
    r.optimize.delay.target_ps = nan;
    requests.push_back(r);
  }
  {
    // Validation passes; the answer quotes the Inf target and can only be
    // sent as its serialization error.
    Request r;
    r.kind = RequestKind::kSweep;
    r.sweep.kind = SweepKind::kSchemes;
    r.sweep.delay.targets_ps = {inf};
    requests.push_back(r);
  }

  const auto dir = test_cache_dir("non_finite");
  ServiceConfig config;
  config.cache_dir = dir.string();
  const auto cached = make_service(std::move(config));
  const auto uncached = make_service();
  std::vector<std::string> expected;
  for (const auto& request : requests) {
    EXPECT_TRUE(request_canonical_key(request).empty());
    expected.push_back(response_line(uncached->serve(request)));
    EXPECT_NE(expected.back().find("\"ok\":false"), std::string::npos)
        << expected.back();
    Response got;
    ASSERT_NO_THROW(got = cached->serve(request));
    EXPECT_EQ(response_line(got), expected.back());
  }

  std::vector<Request> doubled = requests;
  doubled.insert(doubled.end(), requests.begin(), requests.end());
  BatchResult batch;
  ASSERT_NO_THROW(batch = cached->run_batch(doubled));
  EXPECT_EQ(batch.stats.unique_requests, doubled.size());
  EXPECT_EQ(batch.stats.disk_hits + batch.stats.disk_misses, 0u);
  for (std::size_t i = 0; i < doubled.size(); ++i) {
    EXPECT_EQ(response_line(batch.responses[i]),
              expected[i % requests.size()]);
  }
  EXPECT_EQ(cached->flush_disk_cache(), 0u);
  fs::remove_all(dir);
}

TEST(ApiCapabilities, ReportsVersionsBoundsAndConfiguration) {
  const auto service = make_service();
  const auto outcome = service->capabilities({});
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  const auto& c = outcome.value();
  EXPECT_EQ(c.schema_versions, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(c.vth_min_v, 0.2);
  EXPECT_DOUBLE_EQ(c.vth_max_v, 0.5);
  EXPECT_DOUBLE_EQ(c.tox_min_a, 10.0);
  EXPECT_DOUBLE_EQ(c.tox_max_a, 14.0);
  EXPECT_EQ(c.grid_vth_v.size(), 7u);  // the paper grid
  EXPECT_EQ(c.grid_tox_a.size(), 5u);
  EXPECT_EQ(c.schemes, (std::vector<std::string>{"I", "II", "III"}));
  EXPECT_EQ(c.l1_size_bytes, 16u * 1024u);
  EXPECT_EQ(c.l2_size_bytes, 1024u * 1024u);
  EXPECT_GT(c.threads, 0);
  EXPECT_EQ(c.search_mode, "pruned");
  EXPECT_FALSE(c.fitted_models);
  EXPECT_FALSE(c.disk_cache);

  // serve() wraps it like any other kind, and the wire form round-trips.
  Request request;
  request.kind = RequestKind::kCapabilities;
  request.id = "caps";
  const auto response = service->serve(request);
  ASSERT_TRUE(response.ok) << response.error.message;
  const std::string bytes = response_to_json(response);
  const auto reparsed = parse_response_json(bytes);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(response_to_json(reparsed.value()), bytes);
}

TEST(ApiResponseParse, RoundTripsEverySuccessShape) {
  const auto service = make_service();
  auto workload = small_workload();
  {
    Request r;  // infeasible optimize: data, not error
    r.id = "squeezed";
    r.kind = RequestKind::kOptimize;
    r.optimize.delay.target_ps = 1.0;
    workload.push_back(std::move(r));
  }
  {
    Request r;  // one-target schemes sweep
    r.id = "sweep";
    r.kind = RequestKind::kSweep;
    r.sweep.kind = SweepKind::kSchemes;
    r.sweep.delay.targets_ps = {1500.0};
    workload.push_back(std::move(r));
  }
  {
    Request r;  // typed in-band error response
    r.id = "bad";
    r.kind = RequestKind::kOptimize;
    r.optimize.delay.target_ps = -1.0;
    workload.push_back(std::move(r));
  }
  for (const auto& request : workload) {
    const std::string bytes = response_to_json(service->serve(request));
    const auto parsed = parse_response_json(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message << " for " << bytes;
    EXPECT_EQ(response_to_json(parsed.value()), bytes);
  }
}

}  // namespace
}  // namespace nanocache::api
