// End-to-end tests of the JSONL server (src/server): strict --listen
// parsing, framing edge cases, per-connection byte-identity with batch
// mode, cross-client cache sharing, concurrency bounded by the evaluation
// slots, stalled clients, and graceful shutdown.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/batch_io.h"
#include "nanocache/service.h"
#include "server/client.h"
#include "server/line_reader.h"
#include "server/listener.h"
#include "server/server.h"
#include "util/error.h"
#include "util/json.h"
#include "util/metrics.h"

namespace nanocache::server {
namespace {

std::shared_ptr<api::Service> make_service() {
  auto out = api::Service::create({});
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
  return out.value();
}

/// Unique unix socket path per test: ctest runs tests of this binary as
/// separate parallel processes, so paths must not collide.
std::string unique_sock(const std::string& tag) {
  return testing::TempDir() + "nc_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

ListenSpec unix_spec(const std::string& path) {
  ListenSpec spec;
  spec.kind = ListenKind::kUnix;
  spec.path = path;
  return spec;
}

/// The reference bytes: what `nanocache_cli batch` emits for `input`.
std::string batch_output(const api::Service& service,
                         const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  api::run_batch_jsonl(service, in, out);
  return out.str();
}

/// Drive `input` through a served connection and collect the full response
/// stream (each line newline-terminated, as on the wire).
std::string serve_roundtrip(const ListenSpec& spec, const std::string& input) {
  Client client = Client::connect(spec);
  client.send(input);
  client.shutdown_write();
  std::string out;
  while (auto line = client.read_line()) {
    out += *line;
    out += '\n';
  }
  return out;
}

/// Drive `input` as a closed-loop client: send one line, wait for its
/// response, then send the next (blank lines get no response).
std::string closed_loop_roundtrip(const ListenSpec& spec,
                                  const std::string& input) {
  Client client = Client::connect(spec);
  std::istringstream lines(input);
  std::string line;
  std::string out;
  while (std::getline(lines, line)) {
    client.send(line + "\n");
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto response = client.read_line();
    if (!response) break;
    out += *response;
    out += '\n';
  }
  client.shutdown_write();
  while (auto extra = client.read_line()) {
    out += *extra;
    out += '\n';
  }
  return out;
}

/// A checked-in fixture from tests/data.
std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(NANOCACHE_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint64_t counter_value(const std::string& name) {
  return metrics::Registry::instance().counter(name).value();
}

template <typename Fn>
ErrorCategory category_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.category();
  }
  ADD_FAILURE() << "expected nanocache::Error";
  return ErrorCategory::kInternal;
}

// --- --listen parsing (satellite: strict typed kConfig errors) ------------

TEST(ListenSpecParse, AcceptsUnixAndTcp) {
  const auto u = parse_listen_spec("unix:/run/nanocache.sock");
  EXPECT_EQ(u.kind, ListenKind::kUnix);
  EXPECT_EQ(u.path, "/run/nanocache.sock");
  EXPECT_EQ(u.describe(), "unix:/run/nanocache.sock");

  const auto t = parse_listen_spec("tcp:127.0.0.1:9100");
  EXPECT_EQ(t.kind, ListenKind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 9100);
  EXPECT_EQ(t.describe(), "tcp:127.0.0.1:9100");

  EXPECT_EQ(parse_listen_spec("tcp:localhost:1").port, 1);
  EXPECT_EQ(parse_listen_spec("tcp:localhost:65535").port, 65535);
}

TEST(ListenSpecParse, RejectsMalformedSpecsAsConfigErrors) {
  const std::vector<std::string> bad = {
      "",                       // no scheme
      "unix:",                  // empty path
      "tcp:localhost",          // missing port
      "tcp::9100",              // empty host
      "tcp:localhost:",         // empty port
      "tcp:localhost:abc",      // non-numeric port
      "tcp:localhost:-1",       // sign
      "tcp:localhost:0",        // below range
      "tcp:localhost:65536",    // above range
      "tcp:localhost:9100x",    // trailing garbage
      "tcp:not-a-host:9100",    // unresolvable host literal
      "http:localhost:9100",    // unknown scheme
      "/run/nanocache.sock",    // scheme required
  };
  for (const auto& spec : bad) {
    EXPECT_EQ(category_of([&] { parse_listen_spec(spec); }),
              ErrorCategory::kConfig)
        << "spec: '" << spec << "'";
  }
}

TEST(ListenSpecParse, RejectsOverlongUnixPath) {
  EXPECT_EQ(category_of([&] {
              parse_listen_spec("unix:/" + std::string(300, 'x'));
            }),
            ErrorCategory::kConfig);
}

TEST(Listener, DoubleBindIsConfigError) {
  const auto path = unique_sock("dbind");
  auto first = Listener::open(unix_spec(path));
  EXPECT_EQ(category_of([&] { Listener::open(unix_spec(path)); }),
            ErrorCategory::kConfig);
  first.close();
  ::unlink(path.c_str());

  ListenSpec tcp;
  tcp.kind = ListenKind::kTcp;
  tcp.host = "127.0.0.1";
  tcp.port = 0;  // ephemeral
  auto bound = Listener::open(tcp);
  ASSERT_GT(bound.bound_port(), 0);
  tcp.port = bound.bound_port();
  EXPECT_EQ(category_of([&] { Listener::open(tcp); }),
            ErrorCategory::kConfig);
}

TEST(Listener, UnixCloseUnlinksSocketFile) {
  const auto path = unique_sock("unlink");
  auto listener = Listener::open(unix_spec(path));
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  listener.close();
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

// --- byte-identity with batch mode ----------------------------------------

TEST(Serve, ResponsesAreByteIdenticalToBatch) {
  const auto service = make_service();
  const std::string input =
      "{\"schema_version\":1,\"id\":\"e1\",\"kind\":\"eval\"}\n"
      "\n"
      "this is not json\n"
      "{\"schema_version\":2,\"id\":\"o1\",\"kind\":\"optimize\","
      "\"scheme\":\"II\",\"delay\":{\"target_ps\":1400}}\n"
      "{\"schema_version\":1,\"id\":\"e2\",\"kind\":\"eval\"}\n"
      "{\"schema_version\":2,\"id\":\"cap\",\"kind\":\"capabilities\"}\n"
      // v3 requests exercising each design-space knob.
      "{\"schema_version\":3,\"id\":\"v3org\",\"kind\":\"eval\","
      "\"organization\":{\"associativity\":4,\"banks\":2}}\n"
      "{\"schema_version\":3,\"id\":\"v3node\",\"kind\":\"eval\","
      "\"node_nm\":45}\n"
      "{\"schema_version\":3,\"id\":\"v3gate\",\"kind\":\"optimize\","
      "\"scheme\":\"III\",\"delay\":{\"target_ps\":1400},"
      "\"power_gating\":{\"enabled\":true,\"perf_loss_budget\":0.1}}\n"
      "{\"schema_version\":3,\"id\":\"v3full\",\"kind\":\"eval\","
      "\"organization\":{\"associativity\":\"full\"}}\n";
  const std::string expected = batch_output(*service, input);

  Server server(service, {unix_spec(unique_sock("ident")), 1u << 20, 4});
  server.start();
  EXPECT_EQ(serve_roundtrip(server.config().listen, input), expected);
  // The parse failure reported its input line number (3: after e1 and the
  // blank), exactly as batch mode numbers it.
  EXPECT_NE(expected.find("line 3"), std::string::npos);
  server.shutdown();
  server.wait();
}

TEST(Serve, CrlfLinesMatchBatch) {
  const auto service = make_service();
  const std::string input =
      "{\"schema_version\":1,\"id\":\"w1\",\"kind\":\"eval\"}\r\n"
      "{\"schema_version\":1,\"id\":\"w2\",\"kind\":\"eval\"}\r\n";
  const std::string expected = batch_output(*service, input);
  ASSERT_NE(expected.find("\"ok\":true"), std::string::npos);

  Server server(service, {unix_spec(unique_sock("crlf")), 1u << 20, 2});
  server.start();
  EXPECT_EQ(serve_roundtrip(server.config().listen, input), expected);
  server.shutdown();
  server.wait();
}

TEST(Serve, PartialLineThenDisconnectIsStillAnswered) {
  // getline semantics: a final unterminated line counts.  The client
  // half-closes mid-line; the server answers it, then closes.
  const auto service = make_service();
  const std::string input =
      "{\"schema_version\":1,\"id\":\"full\",\"kind\":\"eval\"}\n"
      "{\"schema_version\":1,\"id\":\"torn\",\"kind\":\"eval\"}";  // no \n
  const std::string expected = batch_output(*service, input);

  Server server(service, {unix_spec(unique_sock("torn")), 1u << 20, 2});
  server.start();
  const std::string got = serve_roundtrip(server.config().listen, input);
  EXPECT_EQ(got, expected);
  EXPECT_NE(got.find("\"id\":\"torn\""), std::string::npos);
  server.shutdown();
  server.wait();
}

// --- framing hardening ----------------------------------------------------

TEST(Serve, OversizedLineRejectedInBandAndConnectionSurvives) {
  const auto service = make_service();
  Server server(service,
                {unix_spec(unique_sock("long")), /*max_line_bytes=*/256,
                 /*workers=*/2});
  server.start();

  std::string input(4096, 'x');  // far past the 256-byte bound
  input += '\n';
  input += "{\"schema_version\":1,\"id\":\"after\",\"kind\":\"eval\"}\n";
  const std::string got = serve_roundtrip(server.config().listen, input);

  std::istringstream lines(got);
  std::string first, second, extra;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_FALSE(std::getline(lines, extra));

  const auto err = json::parse(first);
  EXPECT_FALSE(err->get("ok")->as_bool());
  EXPECT_EQ(err->get("error")->get("code")->as_string(), "config");
  EXPECT_NE(err->get("error")->get("message")->as_string().find(
                "line 1: request line exceeds the maximum length of 256"),
            std::string::npos);
  // The next line on the same connection is served normally.
  const auto ok = json::parse(second);
  EXPECT_TRUE(ok->get("ok")->as_bool());
  EXPECT_EQ(ok->get("id")->as_string(), "after");

  EXPECT_EQ(server.stats().lines_rejected_too_long, 1u);
  server.shutdown();
  server.wait();
}

TEST(Serve, BlankLinesCountTowardLineNumbers) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("blank")), 1u << 20, 1});
  server.start();
  // Two blank-ish lines, then garbage: the error must say line 3.
  const std::string got =
      serve_roundtrip(server.config().listen, "\n \t \nnope\n");
  EXPECT_NE(got.find("line 3"), std::string::npos);
  // Blank lines are answered by nothing — exactly one response line.
  EXPECT_EQ(std::count(got.begin(), got.end(), '\n'), 1);
  server.shutdown();
  server.wait();
}

// --- control requests -----------------------------------------------------

TEST(Serve, MetricsControlRequestReturnsLiveSnapshot) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("metrics")), 1u << 20, 2});
  server.start();
  const std::string got = serve_roundtrip(
      server.config().listen,
      "{\"schema_version\":1,\"id\":\"e\",\"kind\":\"eval\"}\n"
      "{\"kind\":\"metrics\",\"id\":\"m\"}\n");
  std::istringstream lines(got);
  std::string eval_line, metrics_line;
  ASSERT_TRUE(std::getline(lines, eval_line));
  ASSERT_TRUE(std::getline(lines, metrics_line));

  const auto root = json::parse(metrics_line);
  EXPECT_EQ(root->get("id")->as_string(), "m");
  EXPECT_EQ(root->get("kind")->as_string(), "metrics");
  EXPECT_TRUE(root->get("ok")->as_bool());
  const auto result = root->get("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->get("counters"), nullptr);
  // The snapshot is live: it has seen this server's own request counter.
  const auto served = result->get("counters")->get("server.requests");
  ASSERT_NE(served, nullptr);
  EXPECT_GE(served->as_int(), 2);
  EXPECT_EQ(server.stats().control_requests, 1u);
  server.shutdown();
  server.wait();
}

// --- cache sharing and concurrency ----------------------------------------

TEST(Serve, InterleavedClientsShareTheMemoCache) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("share")), 1u << 20, 4});
  server.start();
  const std::string request =
      "{\"schema_version\":2,\"kind\":\"optimize\",\"id\":\"same\","
      "\"scheme\":\"II\",\"delay\":{\"target_ps\":1500}}\n";

  Client a = Client::connect(server.config().listen);
  Client b = Client::connect(server.config().listen);
  // Sequence the sends so the second request deterministically finds the
  // memoized entry; concurrent identical misses may legally both compute.
  a.send(request);
  const auto ra = a.read_line();
  b.send(request);
  const auto rb = b.read_line();
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  // Bitwise-equal answers across connections, computed once.
  EXPECT_EQ(*ra, *rb);
  EXPECT_NE(ra->find("\"ok\":true"), std::string::npos);
  EXPECT_GT(service->memo_stats().hits, 0u);
  a.close();
  b.close();
  server.shutdown();
  server.wait();
}

TEST(Serve, EightConcurrentClientsGetOrderedIdenticalStreams) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("soak")), 1u << 20,
                          /*workers=*/4});
  server.start();

  std::string input;
  for (int i = 0; i < 12; ++i) {
    input += "{\"schema_version\":1,\"id\":\"q" + std::to_string(i) +
             "\",\"kind\":\"eval\",\"vth_v\":" +
             (i % 3 == 0 ? "0.3" : i % 3 == 1 ? "0.35" : "0.4") + "}\n";
  }
  input += "broken json\n";
  input += "{\"schema_version\":2,\"id\":\"last\",\"kind\":\"capabilities\"}\n";
  const std::string expected = batch_output(*service, input);

  constexpr int kClients = 8;
  std::vector<std::string> got(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        got[c] = serve_roundtrip(server.config().listen, input);
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], expected) << "client " << c;
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.requests_admitted,
            static_cast<std::uint64_t>(kClients * 14));
  server.shutdown();
  server.wait();
}

// --- answering on the connection's thread --------------------------------

TEST(ServeInline, ClosedLoopClientIsAnsweredInline) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("closed")), 1u << 20, 2});
  server.start();
  const auto requests_before = counter_value("server.requests");
  EXPECT_EQ(closed_loop_roundtrip(server.config().listen,
                                  read_fixture("batch_requests.jsonl")),
            read_fixture("batch_responses_golden.jsonl"));
  EXPECT_EQ(counter_value("server.requests") - requests_before, 100u);
  server.shutdown();
  server.wait();
}

TEST(ServeInline, PipelinedClientMatchesGolden) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("piped")), 1u << 20, 2});
  server.start();
  const auto requests_before = counter_value("server.requests");
  EXPECT_EQ(serve_roundtrip(server.config().listen,
                            read_fixture("batch_requests.jsonl")),
            read_fixture("batch_responses_golden.jsonl"));
  EXPECT_EQ(counter_value("server.requests") - requests_before, 100u);
  server.shutdown();
  server.wait();
}

TEST(ServeInline, InlineMetricsRequestSeesItsOwnAdmission) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("selfm")), 1u << 20, 2});
  server.start();
  const auto requests_before = counter_value("server.requests");
  Client client = Client::connect(server.config().listen);
  client.send("{\"kind\":\"metrics\",\"id\":\"self\"}\n");
  const auto response = client.read_line();
  ASSERT_TRUE(response.has_value());

  const auto counters = json::parse(*response)->get("result")->get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->get("server.requests")->as_uint(), requests_before + 1);
  client.close();
  server.shutdown();
  server.wait();
}

TEST(ServeInline, OneWorkerBoundsConcurrencyUnderEightClosedLoopClients) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("bound")), 1u << 20,
                          /*workers=*/1});
  server.start();
  auto& peak = metrics::Registry::instance().gauge("server.peak_evaluating");
  peak.reset();
  const std::string input = read_fixture("batch_requests.jsonl");
  const std::string golden = read_fixture("batch_responses_golden.jsonl");

  constexpr int kClients = 8;
  std::vector<std::string> got(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        got[c] = closed_loop_roundtrip(server.config().listen, input);
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  server.shutdown();
  server.wait();
  EXPECT_EQ(failures.load(), 0);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], golden) << "client " << c;
  }
  // Eight connections, one evaluation slot: one answer at any moment.
  EXPECT_EQ(peak.value(), 1);
}

TEST(ServeInline, ShutdownDuringInlineAnswerStillDeliversIt) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("inldrain")), 1u << 20,
                          2});
  server.start();
  // A 2x2 tuple_menu memo miss: long enough to be mid-computation when the
  // drain starts.
  const std::string menu =
      "{\"schema_version\":2,\"id\":\"menu\",\"kind\":\"tuple_menu\","
      "\"num_tox\":2,\"num_vth\":2,\"delay\":{\"targets_ps\":[1350,1700]}}\n";
  const auto requests_before = counter_value("server.requests");
  Client client = Client::connect(server.config().listen);
  client.send(menu);
  // The reader counts a request before it starts computing.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (counter_value("server.requests") == requests_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GT(counter_value("server.requests"), requests_before);
  server.shutdown();

  const auto response = client.read_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response + "\n", batch_output(*make_service(), menu));
  EXPECT_FALSE(client.read_line().has_value());
  server.wait();
  EXPECT_EQ(server.stats().responses_written, 1u);
}

TEST(Serve, StalledClientCannotHoldTheOnlySlot) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("stall")), 1u << 20,
                          /*workers=*/1});
  server.start();

  // Client A pipelines requests whose ~10 KB responses far exceed the
  // socket buffer, then never reads: its connection's thread blocks in
  // send() once the buffer fills.
  constexpr int kStalledLines = 200;
  const std::string sweep =
      "{\"schema_version\":1,\"id\":\"big\",\"kind\":\"sweep\","
      "\"sweep\":\"schemes\",\"cache_size_bytes\":16384,"
      "\"delay_targets_ps\":[1000,1100,1200,1300,1400,1500,1600,1700,1800]}\n";
  std::string burst;
  for (int i = 0; i < kStalledLines; ++i) burst += sweep;
  Client a = Client::connect(server.config().listen);
  a.send(burst);
  // Wait until A's thread sits in send(): one response past the last one
  // written, and no progress for a while.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  ServerStats last = server.stats();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const ServerStats now = server.stats();
    const bool blocked = now.responses_written > 0 &&
                         now.requests_admitted == now.responses_written + 1;
    if (blocked && now.requests_admitted == last.requests_admitted) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    last = now;
  }
  ASSERT_LT(last.responses_written, static_cast<std::uint64_t>(kStalledLines));

  // Client B still gets its whole closed-loop round trip, well inside the
  // send timeout A's thread is parked under.
  auto b = std::async(std::launch::async, [&] {
    return closed_loop_roundtrip(server.config().listen,
                                 read_fixture("batch_requests.jsonl"));
  });
  const bool finished =
      b.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  // Release A (its thread's send fails, and it drains to EOF) before
  // reading B, so a failure here cannot hang the test.
  a.close();
  EXPECT_TRUE(finished) << "a stalled client held the only evaluation slot";
  EXPECT_EQ(b.get(), read_fixture("batch_responses_golden.jsonl"));
  server.shutdown();
  server.wait();
}

TEST(Serve, DeeplyNestedLineIsAConfigErrorAndConnectionSurvives) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("deep")), 1u << 20, 2});
  server.start();
  const std::string input =
      std::string(200000, '[') + "\n" +
      "{\"schema_version\":1,\"id\":\"after\",\"kind\":\"eval\"}\n";
  const std::string got = serve_roundtrip(server.config().listen, input);
  EXPECT_EQ(got, batch_output(*service, input));

  std::istringstream lines(got);
  std::string first, second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  const auto err = json::parse(first);
  EXPECT_EQ(err->get("error")->get("code")->as_string(), "config");
  EXPECT_EQ(err->get("error")->get("message")->as_string().rfind("line 1: ",
                                                                 0),
            0u);
  EXPECT_EQ(json::parse(second)->get("id")->as_string(), "after");
  // The server survives too: a new connection is answered.
  EXPECT_NE(serve_roundtrip(server.config().listen,
                            "{\"schema_version\":1,\"kind\":\"eval\"}\n")
                .find("\"ok\":true"),
            std::string::npos);
  server.shutdown();
  server.wait();
}

// --- transports and shutdown ----------------------------------------------

TEST(Serve, TcpEphemeralPortRoundTrips) {
  const auto service = make_service();
  ListenSpec spec;
  spec.kind = ListenKind::kTcp;
  spec.host = "127.0.0.1";
  spec.port = 0;  // ephemeral: only reachable by struct construction
  Server server(service, {spec, 1u << 20, 2});
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  ListenSpec connect_spec = spec;
  connect_spec.port = server.tcp_port();
  const std::string input = "{\"schema_version\":1,\"kind\":\"eval\"}\n";
  EXPECT_EQ(serve_roundtrip(connect_spec, input),
            batch_output(*service, input));
  server.shutdown();
  server.wait();
}

TEST(Serve, ShutdownDrainsAndStopsAccepting) {
  const auto service = make_service();
  const auto path = unique_sock("drain");
  Server server(service, {unix_spec(path), 1u << 20, 2});
  server.start();

  Client client = Client::connect(server.config().listen);
  client.send("{\"schema_version\":1,\"id\":\"pre\",\"kind\":\"eval\"}\n");
  const auto response = client.read_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"id\":\"pre\""), std::string::npos);

  server.shutdown();
  server.wait();
  // Admitted work was answered, the socket file is gone, and new
  // connections are refused.
  EXPECT_EQ(server.stats().responses_written, 1u);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  EXPECT_EQ(category_of([&] { Client::connect(server.config().listen); }),
            ErrorCategory::kIo);
  // The connection drained to EOF rather than being severed.
  EXPECT_FALSE(client.read_line().has_value());
}

TEST(Serve, ShutdownIsIdempotentAndSafeWithInflightWork) {
  const auto service = make_service();
  Server server(service, {unix_spec(unique_sock("inflight")), 1u << 20,
                          /*workers=*/2});
  server.start();
  Client client = Client::connect(server.config().listen);
  std::string burst;
  for (int i = 0; i < 6; ++i) {
    burst += "{\"schema_version\":1,\"id\":\"b" + std::to_string(i) +
             "\",\"kind\":\"eval\",\"tox_a\":1" + std::to_string(i % 5) +
             "}\n";
  }
  client.send(burst);
  server.shutdown();
  server.shutdown();  // idempotent
  server.wait();
  // Every request the reader admitted before the drain was answered, in
  // order; the tail may have been cut off by the read-side close, but the
  // stream is a strict prefix of the batch reference.
  std::string got;
  while (auto line = client.read_line()) {
    got += *line;
    got += '\n';
  }
  const std::string expected = batch_output(*service, burst);
  EXPECT_EQ(expected.compare(0, got.size(), got), 0)
      << "served responses must be a prefix of the batch reference";
}

}  // namespace
}  // namespace nanocache::server
