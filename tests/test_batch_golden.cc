// Differential byte-identity suite for the parallel-throughput work: the
// checked-in request fixtures must produce response streams byte-equal to
// their pre-change goldens at every thread count, through both the batch
// path and a served unix socket (8 concurrent connections for the
// 100-request fixture — which doubles as the tsan soak of the sharded
// MemoCache, since tier-1 runs under tools/run_sanitizers.sh tsan).  The
// second fixture covers the Figure-2 tuple problem: all nine {1,2,3}^2 menu
// specs, target ladders with an infeasible rung and one exactly at the
// fastest AMAT, repeated targets, and two frontier requests.  The third
// holds one frontier request per Figure-2 spec, so every spec's frontier is
// pinned at full precision.  The fourth holds one line per way a request
// can fail to parse, pinning every parse error's bytes; the fifth one
// well-formed line per validation or infeasibility site a request can
// reach, pinning every error message free of source locations.  The sixth
// covers every menu spec the paper grid allows (1-5 Tox x 1-7 Vth): per
// spec a 14-target ladder, four single targets and one target exactly at
// the fastest AMAT, so the pruned DP and its re-solve rule are pinned
// wherever the state cap binds.  The last two are the benchmark's seed-7
// and seed-9173 study pools.
//
// The work golden (work_golden.txt, one "<fixture> <counter> <value>" line
// each) pins how much search each fixture's batch does: the counters a
// lost pruning bound or an extra optimizer pass would move, on any host.
//
// Regenerating the goldens after an *intentional* model change:
//   NANOCACHE_REGEN_GOLDEN=1 ./tests/test_batch_golden
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/batch_io.h"
#include "nanocache/service.h"
#include "server/client.h"
#include "server/server.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace nanocache {
namespace {

/// Restores the process-wide thread default on scope exit so thread-count
/// sweeps can't leak into other tests of this binary.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { par::set_default_threads(0); }
};

std::string data_path(const std::string& name) {
  return std::string(NANOCACHE_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::shared_ptr<api::Service> make_service() {
  auto out = api::Service::create({});
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
  return out.value();
}

/// Counter deltas of one batch, by counter name.
using Work = std::map<std::string, std::uint64_t>;

/// The counters the work golden pins.  Every one reads exactly at one
/// thread.  Only the batch's request dedup and which menus the tuple-menu
/// bounds enumerate, solve and solve again also read the same at any
/// thread count: the
/// rest depend on the memo, and MemoCache lets two threads compute one key
/// (first insert wins), so at N threads a racing pair can add an optimize
/// call, its grid points and combos, and a miss.
struct PinnedCounter {
  const char* name;
  bool any_thread_count;
};
constexpr PinnedCounter kPinnedCounters[] = {
    {"api.batch.requests", true},
    {"api.batch.unique_requests", true},
    {"api.batch.request_hits", true},
    {"opt.menus_enumerated", true},
    {"opt.menus_solved", true},
    {"opt.menus_resolved", true},
    {"opt.designs_considered", true},
    {"api.memo.hits", false},
    {"api.memo.misses", false},
    {"opt.optimize_calls", false},
    {"opt.grid_points_evaluated", false},
    {"opt.combos_evaluated", false},
    {"opt.combos_skipped", false},
};

/// The batch's response stream; `work`, when given, receives how far the
/// batch moved every pinned counter.
std::string batch_output(const api::Service& service, const std::string& input,
                         Work* work = nullptr) {
  auto& registry = metrics::Registry::instance();
  Work before;
  for (const auto& counter : kPinnedCounters) {
    before[counter.name] = registry.counter(counter.name).value();
  }
  std::istringstream in(input);
  std::ostringstream out;
  api::run_batch_jsonl(service, in, out);
  if (work != nullptr) {
    work->clear();
    for (const auto& [name, value] : before) {
      (*work)[name] = registry.counter(name).value() - value;
    }
  }
  return out.str();
}

/// A request fixture and its golden response stream (tests/data).
struct Fixture {
  const char* requests;
  const char* golden;
};
constexpr Fixture kBatchFixture{"batch_requests.jsonl",
                                "batch_responses_golden.jsonl"};
constexpr Fixture kMenuFixture{"tuple_menu_requests.jsonl",
                               "tuple_menu_responses_golden.jsonl"};
constexpr Fixture kFrontierFixture{"tuple_frontier_requests.jsonl",
                                   "tuple_frontier_responses_golden.jsonl"};
constexpr Fixture kMalformedFixture{"malformed_requests.jsonl",
                                    "malformed_responses_golden.jsonl"};
constexpr Fixture kInvalidFixture{"invalid_requests.jsonl",
                                  "invalid_responses_golden.jsonl"};
constexpr Fixture kAllSpecsFixture{"tuple_allspecs_requests.jsonl",
                                   "tuple_allspecs_responses_golden.jsonl"};
constexpr Fixture kStudySeed7Fixture{"study_seed7_requests.jsonl",
                                     "study_seed7_responses_golden.jsonl"};
constexpr Fixture kStudySeed9173Fixture{
    "study_seed9173_requests.jsonl", "study_seed9173_responses_golden.jsonl"};

constexpr const char* kWorkGolden = "work_golden.txt";

/// True (and the golden rewritten) when the caller asked for regeneration;
/// tests then skip their comparisons.  `work`, when given, receives the
/// counters the regenerating one-thread batch moved.
bool maybe_regenerate_golden(const Fixture& fixture, const std::string& input,
                             Work* work = nullptr) {
  if (std::getenv("NANOCACHE_REGEN_GOLDEN") == nullptr) return false;
  par::set_default_threads(1);
  const auto service = make_service();
  std::ofstream out(data_path(fixture.golden), std::ios::binary);
  out << batch_output(*service, input, work);
  return true;
}

/// The work golden's lines, sorted, with `fixture`'s replaced by `work`.
void rewrite_work_golden(const Fixture& fixture, const Work& work) {
  const std::string prefix = std::string(fixture.requests) + ' ';
  std::vector<std::string> lines;
  std::istringstream in(read_file(data_path(kWorkGolden)));
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) != 0) lines.push_back(line);
  }
  for (const auto& [name, value] : work) {
    lines.push_back(prefix + name + ' ' + std::to_string(value));
  }
  std::sort(lines.begin(), lines.end());
  std::ofstream out(data_path(kWorkGolden), std::ios::binary);
  for (const auto& line : lines) out << line << '\n';
}

/// The work golden's counters for `fixture`.
Work work_golden(const Fixture& fixture) {
  Work work;
  std::istringstream in(read_file(data_path(kWorkGolden)));
  std::string name, counter;
  std::uint64_t value = 0;
  while (in >> name >> counter >> value) {
    if (name == fixture.requests) work[counter] = value;
  }
  return work;
}

/// Send `input` over each of `clients` concurrent connections to a server
/// on `service` and return what each connection read back.
std::vector<std::string> served_outputs(
    const std::shared_ptr<api::Service>& service, const std::string& input,
    int clients) {
  server::ListenSpec spec;
  spec.kind = server::ListenKind::kUnix;
  spec.path = testing::TempDir() + "nc_golden_" + std::to_string(::getpid()) +
              ".sock";
  server::Server server(service, {spec, 1u << 20, /*workers=*/8});
  server.start();

  std::vector<std::string> got(clients);
  std::vector<std::string> errors(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        server::Client client = server::Client::connect(server.config().listen);
        client.send(input);
        client.shutdown_write();
        std::string out;
        while (auto line = client.read_line()) {
          out += *line;
          out += '\n';
        }
        got[c] = std::move(out);
      } catch (const Error& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  server.shutdown();
  server.wait();
  for (int c = 0; c < clients; ++c) {
    EXPECT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
  }
  return got;
}

/// The fixture's batch output and work at 1, 2 and 8 threads, each on a
/// fresh service so memo state from a previous pass cannot mask a
/// divergence.  Every pinned counter must match the work golden at one
/// thread, the thread-invariant ones at every thread count.
void expect_golden_at_any_thread_count(const Fixture& fixture) {
  ThreadCountGuard guard;
  const std::string input = read_file(data_path(fixture.requests));
  ASSERT_FALSE(input.empty());
  Work regenerated;
  if (maybe_regenerate_golden(fixture, input, &regenerated)) {
    rewrite_work_golden(fixture, regenerated);
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string golden = read_file(data_path(fixture.golden));
  ASSERT_FALSE(golden.empty());
  const Work expected = work_golden(fixture);
  ASSERT_FALSE(expected.empty()) << "no work golden for " << fixture.requests;
  for (int threads : {1, 2, 8}) {
    par::set_default_threads(threads);
    const auto service = make_service();
    Work work;
    EXPECT_EQ(batch_output(*service, input, &work), golden)
        << "threads=" << threads;
    for (const auto& [name, any_thread_count] : kPinnedCounters) {
      if (threads > 1 && !any_thread_count) continue;
      const auto want = expected.find(name);
      ASSERT_NE(want, expected.end()) << name << " not in " << kWorkGolden;
      EXPECT_EQ(work[name], want->second)
          << fixture.requests << ' ' << name << " threads=" << threads;
    }
  }
}

/// Each line of a JSONL stream keyed by its "id" value.
std::map<std::string, std::string> lines_by_id(const std::string& stream) {
  std::map<std::string, std::string> out;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    const auto at = line.find("\"id\":\"");
    EXPECT_NE(at, std::string::npos) << line;
    if (at == std::string::npos) continue;
    const auto begin = at + 6;
    const auto id = line.substr(begin, line.find('"', begin) - begin);
    EXPECT_TRUE(out.emplace(id, line).second) << "duplicate id " << id;
  }
  return out;
}

TEST(BatchGolden, ByteIdenticalToGoldenAtAnyThreadCount) {
  expect_golden_at_any_thread_count(kBatchFixture);
}

TEST(BatchGolden, NineMenuFixtureByteIdenticalAtAnyThreadCount) {
  expect_golden_at_any_thread_count(kMenuFixture);
}

TEST(BatchGolden, FigureTwoFrontiersByteIdenticalAtAnyThreadCount) {
  expect_golden_at_any_thread_count(kFrontierFixture);
}

TEST(BatchGolden, EveryMenuSpecByteIdenticalAtAnyThreadCount) {
  expect_golden_at_any_thread_count(kAllSpecsFixture);
}

TEST(BatchGolden, StudySeed7ByteIdenticalAtAnyThreadCount) {
  expect_golden_at_any_thread_count(kStudySeed7Fixture);
}

TEST(BatchGolden, StudySeed9173ByteIdenticalAtAnyThreadCount) {
  expect_golden_at_any_thread_count(kStudySeed9173Fixture);
}

TEST(BatchGolden, EightServedConnectionsEachMatchGolden) {
  ThreadCountGuard guard;
  const std::string input = read_file(data_path(kBatchFixture.requests));
  ASSERT_FALSE(input.empty());
  if (maybe_regenerate_golden(kBatchFixture, input)) {
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string golden = read_file(data_path(kBatchFixture.golden));

  par::set_default_threads(8);
  const auto service = make_service();
  constexpr int kClients = 8;
  const auto got = served_outputs(service, input, kClients);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], golden) << "client " << c;
  }
  // The sharded memo cache must have been shared across connections: 8
  // identical 100-request streams can miss at most once per unique key.
  const auto stats = service->memo_stats();
  EXPECT_GT(stats.hits, 0u);
}

TEST(BatchGolden, NineMenuFixtureServedMatchesGolden) {
  ThreadCountGuard guard;
  const std::string input = read_file(data_path(kMenuFixture.requests));
  ASSERT_FALSE(input.empty());
  if (maybe_regenerate_golden(kMenuFixture, input)) {
    GTEST_SKIP() << "golden regenerated";
  }
  par::set_default_threads(8);
  const auto got = served_outputs(make_service(), input, /*clients=*/1);
  EXPECT_EQ(got.front(), read_file(data_path(kMenuFixture.golden)));
}

TEST(BatchGolden, TupleMenuLinesMixedIntoTheFixtureKeepTheirBytes) {
  // Tuple-menu lines run ahead of the other requests, one task per spec;
  // the two frontier specs before the region.  Interleaved with optimize,
  // sweep and eval lines they must still leave every response where it was
  // and byte-equal to its golden.
  ThreadCountGuard guard;
  std::istringstream batch_lines(read_file(data_path(kBatchFixture.requests)));
  std::istringstream menu_lines(read_file(data_path(kMenuFixture.requests)));
  std::string input;
  std::string line;
  for (int n = 0; std::getline(batch_lines, line); ++n) {
    input += line + '\n';
    if (n % 9 == 4 && std::getline(menu_lines, line)) input += line + '\n';
  }
  while (std::getline(menu_lines, line)) input += line + '\n';

  auto golden = lines_by_id(read_file(data_path(kBatchFixture.golden)));
  golden.merge(lines_by_id(read_file(data_path(kMenuFixture.golden))));
  std::string serial;
  for (int threads : {1, 8}) {
    par::set_default_threads(threads);
    const std::string out = batch_output(*make_service(), input);
    if (threads == 1) serial = out;
    EXPECT_EQ(out, serial) << "threads=" << threads;
    const auto got = lines_by_id(out);
    ASSERT_EQ(got.size(), golden.size());
    for (const auto& [id, response] : got) {
      EXPECT_EQ(response, golden[id]) << "id=" << id << " threads=" << threads;
    }
  }
}

TEST(BatchGolden, MalformedRequestsAnswerGoldenErrorsBatchAndServed) {
  // One line per way request parsing can fail.  The error bytes are part of
  // the wire contract, so they must not carry a source location that moves
  // with every edit (or the build's path).
  ThreadCountGuard guard;
  const std::string input = read_file(data_path(kMalformedFixture.requests));
  ASSERT_FALSE(input.empty());
  if (maybe_regenerate_golden(kMalformedFixture, input)) {
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string golden = read_file(data_path(kMalformedFixture.golden));
  for (const char* leak : {"precondition failed", " at /", ".cc:"}) {
    EXPECT_EQ(golden.find(leak), std::string::npos) << leak;
  }
  par::set_default_threads(1);
  const auto service = make_service();
  EXPECT_EQ(batch_output(*service, input), golden);
  EXPECT_EQ(served_outputs(service, input, /*clients=*/1).front(), golden);
}

TEST(BatchGolden, InvalidRequestsAnswerGoldenErrorsBatchAndServed) {
  // Well-formed requests that fail validation (or cannot be met) answer
  // with the category and the human message only: the failed condition
  // and source location a precondition carries stay out of the wire bytes,
  // so the same request gets the same answer from every build.
  ThreadCountGuard guard;
  const std::string input = read_file(data_path(kInvalidFixture.requests));
  ASSERT_FALSE(input.empty());
  if (maybe_regenerate_golden(kInvalidFixture, input)) {
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string golden = read_file(data_path(kInvalidFixture.golden));
  EXPECT_EQ(golden.find(".cc:"), std::string::npos);
  for (int threads : {1, 8}) {
    par::set_default_threads(threads);
    const auto service = make_service();
    EXPECT_EQ(batch_output(*service, input), golden) << "threads=" << threads;
    EXPECT_EQ(served_outputs(service, input, /*clients=*/1).front(), golden)
        << "threads=" << threads;
  }

  // With a disk cache, a cold and then a warm service answer the same
  // bytes.  Errors are never persisted: the cold run hits nothing, and the
  // warm run hits only the golden's success lines (the infeasible
  // optimize is data, not an error).
  std::size_t successes = 0;
  for (std::size_t at = golden.find("\"ok\":true"); at != std::string::npos;
       at = golden.find("\"ok\":true", at + 1)) {
    ++successes;
  }
  ASSERT_EQ(successes, 1u);
  const std::string dir =
      testing::TempDir() + "nc_invalid_cache_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  for (const bool warm : {false, true}) {
    const char* run = warm ? "warm" : "cold";
    api::ServiceConfig config;
    config.cache_dir = dir;
    auto created = api::Service::create(std::move(config));
    ASSERT_TRUE(created.ok()) << created.error().message;
    const auto service = created.value();
    std::istringstream in(input);
    std::ostringstream out;
    const auto stats = api::run_batch_jsonl(*service, in, out);
    EXPECT_EQ(out.str(), golden) << run;
    EXPECT_EQ(stats.disk_hits, warm ? successes : 0u) << run;
    EXPECT_EQ(served_outputs(service, input, /*clients=*/1).front(), golden)
        << run;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nanocache
