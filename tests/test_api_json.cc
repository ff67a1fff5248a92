// Number-formatting edge cases of the batch wire format, the parser's
// nesting cap, and the error-in-place guarantee: a response that cannot
// serialize (non-finite doubles) or a line nested past the cap is replaced
// by an in-band error line preserving order, never an abort.  Companions
// to test_api_batch.cc, which covers the happy-path JSONL round trips.
#include "util/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/batch_io.h"
#include "nanocache/api.h"
#include "util/error.h"

namespace nanocache::api {
namespace {

double round_trip(double d) {
  return json::parse(json::format_double(d))->as_double();
}

TEST(FormatDouble, ShortestRoundTripIsBitExact) {
  const std::vector<double> cases = {
      0.0,
      1.0,
      -1.0,
      0.1,                                    // classic non-representable
      1.0 / 3.0,                              // needs all 17 digits
      3.141592653589793,
      6.02214076e23,
      1e-308,                                 // near the normal/subnormal edge
      2.2250738585072014e-308,                // DBL_MIN
      4.9406564584124654e-324,                // smallest subnormal
      DBL_MAX,
      -DBL_MAX,
      1234567890123456.7,                     // 17 significant digits
  };
  for (const double d : cases) {
    const double back = round_trip(d);
    EXPECT_EQ(std::signbit(back), std::signbit(d)) << d;
    EXPECT_EQ(back, d) << json::format_double(d);
  }
}

TEST(FormatDouble, NegativeZeroKeepsItsSign) {
  const std::string s = json::format_double(-0.0);
  EXPECT_EQ(s.front(), '-') << s;
  const double back = json::parse(s)->as_double();
  EXPECT_TRUE(std::signbit(back));
  EXPECT_EQ(back, 0.0);
}

TEST(FormatDouble, RejectsNonFiniteWithNumericDomain) {
  for (const double d : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    try {
      json::format_double(d);
      FAIL() << "expected Error for non-finite double";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kNumericDomain);
    }
  }
}

TEST(ResponseLine, NonFiniteResponseBecomesErrorLineInPlace) {
  // A response whose payload carries a NaN cannot serialize; the wire
  // layer must substitute an in-band error response that preserves the
  // request id — never throw out of the batch loop.
  Response poisoned;
  poisoned.id = "poisoned-42";
  poisoned.kind = RequestKind::kEval;
  poisoned.ok = true;
  poisoned.eval.access_time_ps = std::numeric_limits<double>::quiet_NaN();

  const std::string line = response_line(poisoned);
  const auto root = json::parse(line);  // the fallback always serializes
  EXPECT_EQ(root->get("id")->as_string(), "poisoned-42");
  EXPECT_FALSE(root->get("ok")->as_bool());
  EXPECT_EQ(root->get("error")->get("code")->as_string(), "numeric-domain");
  EXPECT_NE(root->get("error")->get("message")->as_string().find(
                "serialization"),
            std::string::npos);
}

TEST(ResponseLine, SerializableResponsePassesThroughUnchanged) {
  Response ok;
  ok.id = "fine";
  ok.kind = RequestKind::kEval;
  ok.ok = true;
  ok.eval.access_time_ps = 1341.5;
  EXPECT_EQ(response_line(ok), response_to_json(ok));
}

/// `depth` arrays nested inside one another: "[[...]]".
std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

ErrorCategory parse_error_category(const std::string& text) {
  try {
    json::parse(text);
  } catch (const Error& e) {
    return e.category();
  }
  ADD_FAILURE() << "expected a parse error";
  return ErrorCategory::kInternal;
}

TEST(JsonParse, NestingIsCappedAtSixtyFourLevels) {
  EXPECT_EQ(json::parse(nested_arrays(64))->as_array().size(), 1u);
  EXPECT_EQ(parse_error_category(nested_arrays(65)), ErrorCategory::kConfig);
  // Objects count toward the same cap as arrays.
  std::string objects;
  for (int i = 0; i < 64; ++i) objects += "{\"a\":";
  objects += "[]";
  objects += std::string(64, '}');
  EXPECT_EQ(parse_error_category(objects), ErrorCategory::kConfig);
  // Far past the cap is still a typed error, not a stack overflow.
  EXPECT_EQ(parse_error_category(std::string(200001, '[')),
            ErrorCategory::kConfig);
}

std::shared_ptr<Service> make_service() {
  auto service = Service::create({});
  EXPECT_TRUE(service) << "default ServiceConfig must be valid";
  return service.value();
}

TEST(BatchJsonl, MissingTrailingNewlineStillServesLastLine) {
  const auto service = make_service();
  std::istringstream in(
      "{\"schema_version\":1,\"id\":\"a\",\"kind\":\"eval\"}\n"
      "{\"schema_version\":1,\"id\":\"b\",\"kind\":\"eval\"}");  // no \n
  std::ostringstream out;
  const auto stats = run_batch_jsonl(*service, in, out);
  EXPECT_EQ(stats.requests, 2u);
  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(json::parse(lines[0])->get("id")->as_string(), "a");
  EXPECT_EQ(json::parse(lines[1])->get("id")->as_string(), "b");
  EXPECT_TRUE(json::parse(lines[1])->get("ok")->as_bool());
}

TEST(BatchJsonl, CrlfLineEndingsParse) {
  const auto service = make_service();
  std::istringstream in(
      "{\"schema_version\":1,\"id\":\"win1\",\"kind\":\"eval\"}\r\n"
      "{\"schema_version\":1,\"id\":\"win2\",\"kind\":\"eval\"}\r\n");
  std::ostringstream out;
  const auto stats = run_batch_jsonl(*service, in, out);
  EXPECT_EQ(stats.requests, 2u);
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) {
    const auto root = json::parse(line);
    EXPECT_TRUE(root->get("ok")->as_bool())
        << "CRLF must not poison the JSON: " << line;
  }
}

TEST(BatchJsonl, NonFiniteKnobYieldsErrorLineInPlaceNotAbort) {
  // End-to-end version of the response_line test: an extreme knob drives
  // the evaluation to non-finite outputs, the serializer rejects them,
  // and the batch emits an error response at that position while the
  // neighbors are served normally.
  const auto service = make_service();
  std::istringstream in(
      "{\"schema_version\":1,\"id\":\"ok1\",\"kind\":\"eval\"}\n"
      "{\"schema_version\":1,\"id\":\"bad\",\"kind\":\"eval\","
      "\"vth_v\":-1e308}\n"
      "{\"schema_version\":1,\"id\":\"ok2\",\"kind\":\"eval\"}\n");
  std::ostringstream out;
  const auto stats = run_batch_jsonl(*service, in, out);
  EXPECT_EQ(stats.requests, 3u);
  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(json::parse(lines[0])->get("id")->as_string(), "ok1");
  EXPECT_TRUE(json::parse(lines[0])->get("ok")->as_bool());
  const auto bad = json::parse(lines[1]);
  EXPECT_EQ(bad->get("id")->as_string(), "bad");
  EXPECT_FALSE(bad->get("ok")->as_bool());
  EXPECT_EQ(json::parse(lines[2])->get("id")->as_string(), "ok2");
  EXPECT_TRUE(json::parse(lines[2])->get("ok")->as_bool());
}

TEST(BatchJsonl, DeeplyNestedLineIsAConfigErrorAndNextLineIsServed) {
  const auto service = make_service();
  std::istringstream in(std::string(200001, '[') + "\n" +
                        "{\"schema_version\":1,\"id\":\"next\","
                        "\"kind\":\"eval\"}\n");
  std::ostringstream out;
  run_batch_jsonl(*service, in, out);
  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  const auto deep = json::parse(lines[0]);
  EXPECT_FALSE(deep->get("ok")->as_bool());
  EXPECT_EQ(deep->get("error")->get("code")->as_string(), "config");
  EXPECT_EQ(deep->get("error")->get("message")->as_string().rfind("line 1: ",
                                                                  0),
            0u);
  EXPECT_EQ(json::parse(lines[1])->get("id")->as_string(), "next");
  EXPECT_TRUE(json::parse(lines[1])->get("ok")->as_bool());
}

}  // namespace
}  // namespace nanocache::api
