// Persistent concurrent JSONL server — `nanocache_cli serve`.
//
// One warm api::Service is multiplexed across many client connections:
//
//   accept loop ──> one thread per connection:
//                   read line ─> take an evaluation slot ─> respond
//                   ─> release the slot ─> write the response line
//
// Protocol: each connection speaks the batch-mode JSONL wire format
// (docs/API.md).  Every non-blank request line produces exactly one
// response line, in the order the requests were written — and the response
// bytes are identical to what `nanocache_cli batch` would emit for the same
// stream, because each line goes through the same parse_request_json /
// Service::serve / response_line pipeline with the same line-numbering,
// blank-line, and CRLF rules.  Parse failures and oversized lines are
// answered IN PLACE with an error response; the connection survives.
//
// Two control requests are answered at the server layer:
//   {"kind":"capabilities"}  the standard discovery request (batch-valid)
//   {"kind":"metrics"}       a live snapshot of the process metrics
//                            registry (server-only; excluded, like all
//                            metrics, from the byte-identity contract)
//
// Concurrency model: each connection's thread is the only thread that
// answers its lines, one at a time, so responses leave in request order
// with no sequencer.  Evaluating a line takes one of `workers` slots
// (`--threads`), held only while the response is computed — never across
// the socket write — so the count of requests being answered stays bounded
// by the worker count, not the connection count, and a client that stops
// reading stalls only its own connection.  Every request is evaluated
// serially on its connection's thread (par::SerialRegionGuard), mirroring
// run_batch's per-worker behavior, so every response stays byte-identical
// to a serial evaluation.  All connections share the Service's memoization
// and disk caches, so concurrent clients asking for the same computation
// get bitwise-equal answers with the cost paid once.
//
// Shutdown (SIGINT/SIGTERM via install_signal_handlers, or shutdown()):
// stop accepting, stop reading (half-close every connection's read side),
// answer everything already read, close connections (clients see EOF after
// their final response), flush the persistent disk cache, exit 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nanocache/service.h"
#include "server/listener.h"

namespace nanocache::server {

struct ServerConfig {
  ListenSpec listen;
  /// Maximum request-line length in bytes (newline excluded).  Longer
  /// lines are rejected in-band with a kConfig error response.
  std::size_t max_line_bytes = 1u << 20;
  /// Requests evaluated at once across all connections
  /// (0 = par::default_threads()).
  int workers = 0;
};

/// Point-in-time serving counters (also mirrored into the process metrics
/// registry under server.* names).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_admitted = 0;
  std::uint64_t responses_written = 0;
  std::uint64_t lines_rejected_too_long = 0;
  std::uint64_t control_requests = 0;
};

class Server {
 public:
  /// The server keeps `service` warm for its lifetime.  `config.listen`
  /// must be fully specified (see parse_listen_spec).
  Server(std::shared_ptr<api::Service> service, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the listener and spawn the accept loop.  Throws
  /// Error(kConfig) when the address is already in use, Error(kIo) for
  /// other socket failures.
  void start();

  /// Initiate graceful shutdown (idempotent, callable from any thread):
  /// stop accepting, drain in-flight requests, flush the disk cache.
  void shutdown();

  /// Block until the server has fully drained and released its resources.
  void wait();

  /// Route SIGINT/SIGTERM to server.shutdown() and ignore SIGPIPE (broken
  /// client connections surface as send() errors instead of killing the
  /// process).  One server per process; installing for a second replaces
  /// the first.
  static void install_signal_handlers(Server& server);

  /// The resolved TCP port (after start(); meaningful for tcp specs —
  /// equals the configured port unless it was 0/ephemeral).
  int tcp_port() const;

  const ServerConfig& config() const { return config_; }

  ServerStats stats() const;

 private:
  /// One accepted client connection.  Only its reader thread sends on or
  /// closes the socket; the mutex orders that close against the drain's
  /// shutdown_read.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}

    /// Half-close the read side so a blocked reader unblocks with EOF.
    void shutdown_read();
    /// Close the socket (the client then sees EOF).  Idempotent.
    void close();
    bool closed();

    std::mutex mutex;
    int fd;
  };

  void accept_loop();
  /// Read, answer and write every line of `conn`, then close it.
  void reader_loop(Connection& conn);
  /// Compute the response line (no trailing newline) for input line
  /// `line_number` (`too_long`: the line was discarded as oversized).
  std::string respond(bool too_long, const std::string& line,
                      std::uint64_t line_number);
  /// Join reader threads whose connection already closed (bounds thread
  /// accumulation on a long-lived server).  Called from the accept loop.
  void reap_finished_readers();

  std::shared_ptr<api::Service> service_;
  ServerConfig config_;

  std::optional<Listener> listener_;
  bool started_ = false;
  int wake_pipe_[2] = {-1, -1};

  /// Evaluation slots: one per request that may be answered at once.
  std::counting_semaphore<> slots_;
  /// Requests being answered right now (feeds server.peak_evaluating).
  std::atomic<int> evaluating_{0};
  std::thread accept_thread_;

  std::mutex connections_mutex_;
  std::vector<std::pair<std::unique_ptr<Connection>, std::thread>>
      connections_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_admitted_{0};
  std::atomic<std::uint64_t> responses_written_{0};
  std::atomic<std::uint64_t> lines_rejected_too_long_{0};
  std::atomic<std::uint64_t> control_requests_{0};
};

}  // namespace nanocache::server
