// Batch evaluation contract: JSONL round-trips, canonical request keys,
// request-level dedup accounting, and the headline determinism guarantee —
// run_batch produces byte-identical responses to sequential serve() calls
// at any thread count.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/batch_io.h"
#include "api/request_args.h"
#include "nanocache/api.h"
#include "util/error.h"
#include "util/json.h"
#include "util/parallel.h"

namespace nanocache::api {
namespace {

/// Restores the process-wide default thread count on scope exit.
struct ThreadCountGuard {
  ~ThreadCountGuard() { par::set_default_threads(0); }
};

std::shared_ptr<Service> make_service() {
  auto service = Service::create({});
  EXPECT_TRUE(service.ok()) << service.error().message;
  return service.value();
}

/// A small mixed workload with deliberate overlap: duplicate requests
/// (ids differ), an optimize whose delay target reappears inside a schemes
/// sweep, and an eval repeated at the same knobs.
std::vector<Request> mixed_workload() {
  std::vector<Request> requests;

  for (int i = 0; i < 3; ++i) {
    Request r;
    r.id = "eval-" + std::to_string(i);
    r.kind = RequestKind::kEval;
    r.eval.knobs = Knobs{0.25 + 0.05 * (i % 2), 12.0};  // i==2 repeats i==0
    requests.push_back(std::move(r));
  }

  for (int i = 0; i < 2; ++i) {
    Request r;
    r.id = "opt-" + std::to_string(i);
    r.kind = RequestKind::kOptimize;
    r.optimize.scheme = i == 0 ? SchemeId::kII : SchemeId::kIII;
    r.optimize.delay.target_ps = 1500.0;
    requests.push_back(std::move(r));
  }

  Request sweep;
  sweep.id = "sweep-0";
  sweep.kind = RequestKind::kSweep;
  sweep.sweep.kind = SweepKind::kSchemes;
  sweep.sweep.delay.targets_ps = {1500.0};  // shares "opt|" memo entries
  requests.push_back(std::move(sweep));

  return requests;
}

TEST(ApiBatch, RequestJsonRoundTrips) {
  for (const auto& request : mixed_workload()) {
    const std::string encoded = request_to_json(request);
    const auto parsed = parse_request_json(encoded);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message << " for " << encoded;
    EXPECT_EQ(request_to_json(parsed.value()), encoded);
    EXPECT_EQ(request_canonical_key(parsed.value()),
              request_canonical_key(request));
  }
}

/// Request lines every parser must reject with a kConfig error.
const std::vector<std::string> kMalformedLines = {
    "not json at all",
    "{\"kind\":\"eval\"}",  // missing schema_version
    "{\"schema_version\":99,\"kind\":\"eval\"}",
    "{\"schema_version\":1}",  // missing kind
    "{\"schema_version\":1,\"kind\":\"bogus\"}",
    "{\"schema_version\":1,\"kind\":\"eval\",\"level\":\"l3\"}",
    // Integers too wide for their field fail instead of wrapping.
    "{\"schema_version\":4294967298,\"kind\":\"eval\"}",
    "{\"schema_version\":4,\"kind\":\"tuple_menu\",\"num_tox\":4294967297}",
    "{\"schema_version\":4,\"kind\":\"eval\","
    "\"organization\":{\"banks\":4294967298}}",
    "{\"schema_version\":4,\"kind\":\"eval\",\"node_nm\":4294967361}",
    // Numbers outside the 64-bit integer range.
    "{\"schema_version\":4,\"kind\":\"eval\","
    "\"target\":{\"size_bytes\":1e30}}",
    "{\"schema_version\":4,\"kind\":\"eval\",\"node_nm\":-1e30}",
    "{\"schema_version\":4,\"kind\":\"eval\",\"node_nm\":1e19}",
};

TEST(ApiBatch, ParseRejectsMalformedRequests) {
  for (const auto& line : kMalformedLines) {
    const auto parsed = parse_request_json(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.error().code, ErrorCode::kConfig) << line;
  }

  // Unknown keys are ignored (additive schema evolution).
  const auto parsed = parse_request_json(
      "{\"schema_version\":1,\"kind\":\"eval\",\"future_field\":42}");
  EXPECT_TRUE(parsed.ok());
}

TEST(RequestArgs, IntegerFlagsFailInsteadOfWrappingOrTruncating) {
  const auto translate = [](std::vector<const char*> argv) {
    return request_from_args(
        parse_cli_args(static_cast<int>(argv.size()), argv.data()));
  };
  for (const auto& argv : std::vector<std::vector<const char*>>{
           {"nanocache_cli", "cache", "--banks", "4294967298"},
           {"nanocache_cli", "cache", "--node", "4294967361"},
           {"nanocache_cli", "cache", "--assoc", "4x"},
           {"nanocache_cli", "cache", "--assoc", "4294967300"},
           {"nanocache_cli", "cache", "--size", "16384x"},
           {"nanocache_cli", "cache", "--vth", "0.3x"},
           {"nanocache_cli", "cache", "--tox", "12 "},
           {"nanocache_cli", "optimize", "--delay-ps", "1400ps"},
           {"nanocache_cli", "run", "l2", "--amat-ps", ""},
       }) {
    const auto request = translate(argv);
    ASSERT_FALSE(request.ok()) << argv[2] << " " << argv[3];
    EXPECT_EQ(request.error().code, ErrorCode::kConfig) << argv[2];
  }
  const auto ok = translate({"nanocache_cli", "cache", "--banks", "2", "--node",
                             "45", "--assoc", "4", "--vth", "0.3"});
  ASSERT_TRUE(ok.ok()) << ok.error().message;
  EXPECT_EQ(ok.value().eval.organization.banks, 2u);
  EXPECT_EQ(ok.value().eval.organization.associativity, 4);
  EXPECT_EQ(ok.value().eval.node_nm, 45);
  EXPECT_EQ(ok.value().eval.knobs.vth_v, 0.3);

  // The non-request commands' flags: precompute --target-steps/--nodes/
  // --l1-sizes and variation --samples.
  const auto config_error = [](const auto& fn) {
    try {
      fn();
    } catch (const Error& e) {
      return e.category() == ErrorCategory::kConfig;
    }
    return false;
  };
  const auto args = [](std::vector<const char*> argv) {
    return parse_cli_args(static_cast<int>(argv.size()), argv.data());
  };
  const auto steps =
      args({"nanocache_cli", "precompute", "--target-steps", "4294967298"});
  EXPECT_TRUE(config_error([&] { flag_int(steps, "target-steps", 25); }));
  const auto samples =
      args({"nanocache_cli", "variation", "--samples", "4294967297"});
  EXPECT_TRUE(config_error([&] { flag_int(samples, "samples", 500); }));
  EXPECT_TRUE(config_error([] { narrow_flag<int>("nodes", 4294967341u); }));
  for (const char* bad : {"16x", "-1", "16384,", "16384,,32768", "0x10"}) {
    const auto sizes = args({"nanocache_cli", "precompute", "--l1-sizes", bad});
    EXPECT_TRUE(config_error([&] { flag_uint_list(sizes, "l1-sizes"); }))
        << bad;
  }
  const auto sizes =
      args({"nanocache_cli", "precompute", "--l1-sizes", "16384,32768"});
  EXPECT_EQ(flag_uint_list(sizes, "l1-sizes"),
            (std::vector<std::uint64_t>{16384, 32768}));
  EXPECT_TRUE(flag_uint_list(sizes, "l2-sizes").empty());
  EXPECT_EQ(flag_int(steps, "absent", 25), 25);
}

TEST(RequestArgs, UnknownSchemeIsAConfigError) {
  // frontier reads --scheme through scheme_flag, like optimize.
  for (const char* bad : {"IV", "ii", ""}) {
    const char* argv[] = {"nanocache_cli", "frontier", "--scheme", bad};
    const auto args = parse_cli_args(4, argv);
    try {
      scheme_flag(args, SchemeId::kII);
      ADD_FAILURE() << "expected an error for --scheme '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kConfig) << bad;
      EXPECT_NE(std::string(e.what()).find("unknown scheme"),
                std::string::npos);
    }
  }
  const char* argv[] = {"nanocache_cli", "frontier", "--scheme", "III"};
  EXPECT_EQ(scheme_flag(parse_cli_args(4, argv), SchemeId::kII),
            SchemeId::kIII);
  const char* none[] = {"nanocache_cli", "frontier"};
  EXPECT_EQ(scheme_flag(parse_cli_args(2, none), SchemeId::kII),
            SchemeId::kII);
}

TEST(ApiBatch, ParseRequestValueMatchesParseRequestJson) {
  std::vector<std::string> lines;
  std::ifstream fixture(std::string(NANOCACHE_TEST_DATA_DIR) +
                        "/batch_requests.jsonl");
  ASSERT_TRUE(fixture.good());
  for (std::string line; std::getline(fixture, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 100u);
  lines.insert(lines.end(), kMalformedLines.begin(), kMalformedLines.end());
  // v1 flat spellings, an unknown key, and non-object JSON.
  lines.push_back("{\"schema_version\":1,\"id\":\"e1\",\"kind\":\"eval\"}");
  lines.push_back(
      "{\"schema_version\":1,\"id\":\"o1\",\"kind\":\"optimize\","
      "\"delay_ps\":1500}");
  lines.push_back(
      "{\"schema_version\":1,\"kind\":\"eval\",\"future_field\":42}");
  lines.push_back("[1,2]");
  lines.push_back("\"eval\"");

  for (const auto& line : lines) {
    const auto from_text = parse_request_json(line);
    json::ValuePtr root;
    try {
      root = json::parse(line);
    } catch (const Error& e) {
      // Malformed JSON never reaches parse_request_value: the text path
      // reports the JSON parser's own error.
      ASSERT_FALSE(from_text.ok()) << line;
      EXPECT_EQ(from_text.error().code, ErrorCode::kConfig) << line;
      EXPECT_EQ(from_text.error().message, e.what()) << line;
      continue;
    }
    const auto from_value = parse_request_value(root);
    ASSERT_EQ(from_value.ok(), from_text.ok()) << line;
    if (from_text.ok()) {
      EXPECT_EQ(request_to_json(from_value.value()),
                request_to_json(from_text.value()))
          << line;
    } else {
      EXPECT_EQ(from_value.error().code, from_text.error().code) << line;
      EXPECT_EQ(from_value.error().message, from_text.error().message)
          << line;
    }
  }
}

TEST(ApiBatch, CanonicalKeyIgnoresIdOnly) {
  Request a;
  a.id = "a";
  a.kind = RequestKind::kOptimize;
  Request b = a;
  b.id = "b";
  EXPECT_EQ(request_canonical_key(a), request_canonical_key(b));

  b.optimize.delay.target_ps += 1.0;
  EXPECT_NE(request_canonical_key(a), request_canonical_key(b));
}

TEST(ApiBatch, DedupStatsAndIdEcho) {
  // One thread: the sweep runs after the optimizes it reuses.  With more,
  // it can compute a cell while an optimize still holds the same key, and
  // both miss (MemoCache lets two threads compute one key).
  ThreadCountGuard guard;
  par::set_default_threads(1);
  const auto service = make_service();
  const auto requests = mixed_workload();
  const auto batch = service->run_batch(requests);

  ASSERT_EQ(batch.responses.size(), requests.size());
  // eval-2 repeats eval-0's payload: one request-level hit.
  EXPECT_EQ(batch.stats.requests, requests.size());
  EXPECT_EQ(batch.stats.unique_requests, requests.size() - 1);
  EXPECT_EQ(batch.stats.request_hits, 1u);
  // The schemes sweep reuses the optimize requests' "opt|" entries.
  EXPECT_GT(batch.stats.memo_hits, 0u);
  EXPECT_GT(batch.stats.hit_rate(), 0.0);

  // Every response answers to its own request's id, duplicates included.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batch.responses[i].id, requests[i].id);
    EXPECT_TRUE(batch.responses[i].ok) << batch.responses[i].error.message;
  }
  // The duplicate's payload bytes equal the original's.
  Response copy = batch.responses[2];
  copy.id = batch.responses[0].id;
  EXPECT_EQ(response_to_json(copy), response_to_json(batch.responses[0]));
}

TEST(ApiBatch, BatchMatchesSequentialAtAnyThreadCount) {
  ThreadCountGuard guard;
  const auto requests = mixed_workload();

  // Sequential baseline: one warm service, serve() in input order.
  par::set_default_threads(1);
  std::vector<std::string> baseline;
  {
    const auto service = make_service();
    for (const auto& request : requests) {
      baseline.push_back(response_to_json(service->serve(request)));
    }
  }

  for (const int threads : {1, 8}) {
    par::set_default_threads(threads);
    const auto service = make_service();
    const auto batch = service->run_batch(requests);
    ASSERT_EQ(batch.responses.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(response_to_json(batch.responses[i]), baseline[i])
          << "request " << i << " at " << threads << " thread(s)";
    }
  }
}

TEST(ApiBatch, JsonlStreamKeepsLineOrderAndReportsParseFailures) {
  ThreadCountGuard guard;
  par::set_default_threads(2);
  const auto service = make_service();

  std::istringstream in(
      "{\"schema_version\":1,\"id\":\"e1\",\"kind\":\"eval\"}\n"
      "\n"
      "this line is not json\n"
      "{\"schema_version\":1,\"id\":\"o1\",\"kind\":\"optimize\","
      "\"delay_ps\":1500}\r\n"
      "{\"schema_version\":1,\"id\":\"e2\",\"kind\":\"eval\"}\n");
  std::ostringstream out;
  const auto stats = run_batch_jsonl(*service, in, out);

  // Blank line skipped; the parse failure still occupies its slot.
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.unique_requests, 2u);  // e1 == e2 structurally
  EXPECT_EQ(stats.request_hits, 1u);

  std::vector<std::string> lines;
  std::string line;
  std::istringstream rendered(out.str());
  while (std::getline(rendered, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"id\":\"e1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  // The bad line reports its input line number (3: after e1 and the blank).
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("line 3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":\"o1\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"id\":\"e2\""), std::string::npos);

  // e1 and e2 received byte-identical payloads (ids aside).
  const auto strip_id = [](std::string s, const std::string& id) {
    const auto pos = s.find("\"id\":\"" + id + "\",");
    EXPECT_NE(pos, std::string::npos);
    s.erase(pos, id.size() + 8);
    return s;
  };
  EXPECT_EQ(strip_id(lines[0], "e1"), strip_id(lines[3], "e2"));
}

}  // namespace
}  // namespace nanocache::api
