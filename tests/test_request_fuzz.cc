// Deterministic fuzz test of request parsing: the checked-in 100-request
// fixture is cut short at every k-th byte, bit-flipped and line-spliced,
// and each mutant runs through run_batch_jsonl exactly as `nanocache_cli
// batch` would.  Every mutant must get one response line per non-blank
// input line, and each response must be valid JSON that is either a
// success or a typed (non-internal) error — never a crash.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/batch_io.h"
#include "fault_injection.h"
#include "nanocache/api.h"
#include "util/error.h"
#include "util/json.h"

namespace nanocache::testing {
namespace {

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(NANOCACHE_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Lines run_batch_jsonl answers: every line but the blank ones.
std::size_t answered_lines(const std::string& input) {
  std::istringstream in(input);
  std::size_t count = 0;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") != std::string::npos) ++count;
  }
  return count;
}

/// "" when `line` is a success or a typed error response; else why not.
std::string check_response(const std::string& line) {
  static const std::set<std::string> typed = {"config", "numeric-domain",
                                              "io", "infeasible"};
  try {
    const auto root = json::parse(line);
    if (root->get("ok")->as_bool()) return "";
    const auto code = root->get("error")->get("code")->as_string();
    return typed.count(code) ? "" : "untyped error code '" + code + "'";
  } catch (const Error& e) {
    return std::string("not a response line: ") + e.what();
  }
}

TEST(RequestFuzz, MutatedFixtureLinesGetOneTypedResponseEach) {
  auto service = api::Service::create({});
  ASSERT_TRUE(service.ok());
  const std::string pristine = read_fixture("batch_requests.jsonl");
  auto corpus = mutation_corpus(pristine, 41);
  // A line nested far past the parser's cap, amid well-formed lines.
  const std::string first_line = pristine.substr(0, pristine.find('\n') + 1);
  corpus.push_back({"deep-nesting",
                    first_line + std::string(200001, '[') + "\n" + pristine});
  ASSERT_GT(corpus.size(), 200u);

  for (const auto& mutant : corpus) {
    SCOPED_TRACE(mutant.name);
    std::istringstream in(mutant.bytes);
    std::ostringstream out;
    api::run_batch_jsonl(*service.value(), in, out);

    std::vector<std::string> lines;
    std::istringstream result(out.str());
    for (std::string line; std::getline(result, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), answered_lines(mutant.bytes));
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string problem = check_response(lines[i]);
      EXPECT_TRUE(problem.empty()) << "response " << i + 1 << ": " << problem;
    }
  }
}

}  // namespace
}  // namespace nanocache::testing
