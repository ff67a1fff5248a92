// v3 design-space API contract: the capabilities golden (exact bytes a
// client sees), canonical-key sharing between v2 requests and their
// v3-normalized spellings, distinct keys and results for non-default
// knobs, and wire round-trips of the new organization / power_gating /
// node_nm fields.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "api/batch_io.h"
#include "nanocache/api.h"
#include "util/parallel.h"

namespace nanocache::api {
namespace {

std::shared_ptr<Service> make_service() {
  auto service = Service::create({});
  EXPECT_TRUE(service.ok()) << service.error().message;
  return service.value();
}

std::string batch_output(const Service& service, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  run_batch_jsonl(service, in, out);
  return out.str();
}

Request parse_line(const std::string& line) {
  const auto parsed = parse_request_json(line);
  EXPECT_TRUE(parsed.ok()) << parsed.error().message << " for " << line;
  return parsed.value();
}

TEST(ApiV3, CapabilitiesGoldenJson) {
  // The exact discovery bytes a v3 client sees.  Pinning the full line
  // catches accidental field reorders, renames, or formatting drift;
  // threads is pinned so the golden is machine-independent.
  const int before = par::default_threads();
  par::set_default_threads(4);
  const auto service = make_service();
  const std::string got = batch_output(
      *service, "{\"schema_version\":3,\"id\":\"cap\",\"kind\":\"capabilities\"}\n");
  par::set_default_threads(before);
  EXPECT_EQ(
      got,
      "{\"schema_version\":4,\"id\":\"cap\",\"kind\":\"capabilities\","
      "\"ok\":true,\"result\":{\"schema_versions\":[1,2,3,4],"
      "\"api_version_major\":1,\"api_version_minor\":0,"
      "\"vth_min_v\":0.2,\"vth_max_v\":0.5,\"tox_min_a\":10,\"tox_max_a\":14,"
      "\"grid_vth_v\":[0.2,0.25,0.3,0.35,0.4,0.45,0.5],"
      "\"grid_tox_a\":[10,11,12,13,14],"
      "\"schemes\":[\"I\",\"II\",\"III\"],"
      "\"sweeps\":[\"schemes\",\"l1_sizes\",\"l2_sizes\"],"
      "\"l1_size_bytes\":16384,\"l2_size_bytes\":1048576,"
      "\"threads\":4,\"search_mode\":\"pruned\","
      "\"fitted_models\":false,\"disk_cache\":false,\"cache_dir\":\"\","
      "\"organization\":{\"associativities\":[1,2,4,8],"
      "\"fully_associative\":true,\"max_banks\":8},"
      "\"power_gating\":{\"supported\":true,\"sleep_leakage_factor\":0.05,"
      "\"wake_delay_factor\":0.1,\"max_perf_loss_budget\":1},"
      "\"nodes_nm\":[90,65,45,32,22],"
      "\"surrogate\":{\"loaded\":false,"
      "\"optimize_tables\":0,\"fingerprint\":\"\",\"stamp\":\"\","
      "\"sizes_bytes\":[],\"nodes_nm\":[],\"schemes\":[],"
      "\"max_error\":{\"leakage_mw\":0,\"access_time_ps\":0,"
      "\"dynamic_pj\":0}}}}\n");
}

TEST(ApiV3, NormalizedV3SharesTheCanonicalKeyOfItsV2Spelling) {
  // A v3 request that only spells out the defaults (banks:1 normalizes to
  // the default single bank) must land on the same cache entries as the
  // v2 request it normalizes to.
  const Request v2 = parse_line("{\"schema_version\":2,\"kind\":\"eval\"}");
  const Request v3 = parse_line(
      "{\"schema_version\":3,\"kind\":\"eval\","
      "\"organization\":{\"banks\":1}}");
  EXPECT_EQ(request_canonical_key(v2), request_canonical_key(v3));

  // Any non-default knob gets its own key.
  const Request assoc = parse_line(
      "{\"schema_version\":3,\"kind\":\"eval\","
      "\"organization\":{\"associativity\":4}}");
  const Request banked = parse_line(
      "{\"schema_version\":3,\"kind\":\"eval\","
      "\"organization\":{\"banks\":2}}");
  const Request node = parse_line(
      "{\"schema_version\":3,\"kind\":\"eval\",\"node_nm\":65}");
  EXPECT_NE(request_canonical_key(v2), request_canonical_key(assoc));
  EXPECT_NE(request_canonical_key(v2), request_canonical_key(banked));
  // An explicit node is a different key even when it names the default
  // technology: the node explorer searches the node's own oxide window,
  // not any user-overridden grid.
  EXPECT_NE(request_canonical_key(v2), request_canonical_key(node));
  EXPECT_NE(request_canonical_key(assoc), request_canonical_key(banked));

  const Request gated = parse_line(
      "{\"schema_version\":3,\"kind\":\"optimize\","
      "\"power_gating\":{\"enabled\":true,\"perf_loss_budget\":0.1}}");
  const Request plain =
      parse_line("{\"schema_version\":2,\"kind\":\"optimize\"}");
  EXPECT_NE(request_canonical_key(plain), request_canonical_key(gated));
}

TEST(ApiV3, V2AndNormalizedV3ShareOneCacheEntry) {
  const auto service = make_service();
  std::vector<Request> requests;
  Request v2;
  v2.id = "old";
  v2.kind = RequestKind::kEval;
  requests.push_back(v2);
  requests.push_back(parse_line(
      "{\"schema_version\":3,\"id\":\"new\",\"kind\":\"eval\","
      "\"organization\":{\"banks\":1}}"));
  const auto batch = service->run_batch(requests);
  ASSERT_EQ(batch.responses.size(), 2u);
  // Request-level dedup saw one unique request: one shared cache entry.
  EXPECT_EQ(batch.stats.unique_requests, 1u);
  EXPECT_EQ(batch.stats.request_hits, 1u);
  Response copy = batch.responses[1];
  copy.id = batch.responses[0].id;
  EXPECT_EQ(response_to_json(copy), response_to_json(batch.responses[0]));
}

TEST(ApiV3, NonDefaultKnobsReturnDistinctResults) {
  const auto service = make_service();
  const std::string base =
      batch_output(*service, "{\"schema_version\":2,\"id\":\"x\","
                             "\"kind\":\"eval\"}\n");
  for (const std::string& knob :
       {std::string("\"organization\":{\"associativity\":4}"),
        std::string("\"organization\":{\"banks\":2}"),
        std::string("\"organization\":{\"associativity\":\"full\"}"),
        std::string("\"node_nm\":45")}) {
    const std::string got = batch_output(
        *service, "{\"schema_version\":3,\"id\":\"x\",\"kind\":\"eval\"," +
                      knob + "}\n");
    EXPECT_NE(got.find("\"ok\":true"), std::string::npos) << got;
    EXPECT_NE(got, base) << knob;
  }
}

TEST(ApiV3, RequestJsonRoundTripsWithV3Fields) {
  for (const std::string& line : {
           std::string("{\"schema_version\":3,\"id\":\"a\",\"kind\":\"eval\","
                       "\"organization\":{\"associativity\":\"full\"},"
                       "\"node_nm\":32}"),
           std::string("{\"schema_version\":3,\"id\":\"b\","
                       "\"kind\":\"optimize\",\"scheme\":\"II\","
                       "\"organization\":{\"associativity\":4,\"banks\":2},"
                       "\"power_gating\":{\"enabled\":true,"
                       "\"perf_loss_budget\":0.1},\"node_nm\":22}"),
           std::string("{\"schema_version\":3,\"id\":\"c\",\"kind\":\"sweep\","
                       "\"sweep\":\"schemes\",\"node_nm\":90}"),
       }) {
    const Request request = parse_line(line);
    const std::string encoded = request_to_json(request);
    const Request reparsed = parse_line(encoded);
    EXPECT_EQ(request_to_json(reparsed), encoded) << line;
    EXPECT_EQ(request_canonical_key(reparsed), request_canonical_key(request))
        << line;
  }
}

TEST(ApiV3, GatedAssignmentsSurviveTheResponseRoundTrip) {
  // At a generous delay target every domain prefers its gated variant
  // (95% leakage saved for 10% delay), so the response must carry
  // "gated":true markers and reparse to the same bytes — the disk cache
  // depends on serialize(parse(x)) == x.
  const auto service = make_service();
  const std::string line =
      "{\"schema_version\":3,\"id\":\"g\",\"kind\":\"optimize\","
      "\"scheme\":\"III\",\"delay\":{\"target_ps\":5000},"
      "\"power_gating\":{\"enabled\":true,\"perf_loss_budget\":0.2}}\n";
  const std::string got = batch_output(*service, line);
  ASSERT_NE(got.find("\"ok\":true"), std::string::npos) << got;
  EXPECT_NE(got.find("\"gated\":true"), std::string::npos) << got;

  const std::string body = got.substr(0, got.size() - 1);  // strip newline
  const auto parsed = parse_response_json(body);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(response_to_json(parsed.value()), body);
}

TEST(ApiV3, InvalidKnobsAreTypedConfigErrors) {
  const auto service = make_service();
  for (const std::string& line : {
           std::string("{\"schema_version\":3,\"id\":\"x\",\"kind\":\"eval\","
                       "\"organization\":{\"associativity\":3}}"),
           std::string("{\"schema_version\":3,\"id\":\"x\",\"kind\":\"eval\","
                       "\"organization\":{\"banks\":3}}"),
           std::string("{\"schema_version\":3,\"id\":\"x\",\"kind\":\"eval\","
                       "\"organization\":{\"banks\":16}}"),
           std::string("{\"schema_version\":3,\"id\":\"x\",\"kind\":\"eval\","
                       "\"node_nm\":17}"),
           std::string("{\"schema_version\":3,\"id\":\"x\","
                       "\"kind\":\"optimize\",\"power_gating\":{"
                       "\"enabled\":true,\"perf_loss_budget\":1.5}}"),
       }) {
    const std::string got = batch_output(*service, line + "\n");
    EXPECT_NE(got.find("\"ok\":false"), std::string::npos) << got;
    EXPECT_NE(got.find("\"code\":\"config\""), std::string::npos) << got;
  }
}

}  // namespace
}  // namespace nanocache::api
