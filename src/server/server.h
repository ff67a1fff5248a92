// Persistent concurrent JSONL server — `nanocache_cli serve`.
//
// One warm api::Service is multiplexed across many client connections:
//
//   accept loop ── per-connection reader ──┬──> bounded queue ──> worker pool
//                    (idle: answer inline) │                          │
//   client <──── per-connection in-order response writer <────────────┘
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
// Concurrency model: each connection has a reader thread.  When the
// connection has nothing else in flight, the client has not pipelined a
// further line, and fewer requests than there are workers are being
// answered, the reader answers the line itself — a closed-loop client
// (one line outstanding, the common script) never pays a queue handoff.
// Otherwise the line goes to one bounded queue shared by ALL connections
// (admission control — a full queue blocks readers, which propagates
// backpressure to clients through the socket) and a fixed pool of worker
// threads answers it, so a pipelining or overloaded client still fans out.
// The count of requests being answered, inline or pooled, stays bounded
// by the worker count (`--threads`; at most twice that in a race), not by
// the connection count.  Every request is evaluated serially on the thread
// that answers it (par::SerialRegionGuard), mirroring run_batch's
// per-worker behavior, so every response stays byte-identical to a serial
// evaluation whichever thread answers.  All threads share the Service's
// memoization and disk caches, so concurrent clients asking for the same
// computation get bitwise-equal answers with the cost paid once.
//
// Shutdown (SIGINT/SIGTERM via install_signal_handlers, or shutdown()):
// stop accepting, stop reading (half-close every connection's read side),
// answer everything already admitted, flush the persistent disk cache,
// close connections (clients see EOF after their final response), exit 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nanocache/service.h"
#include "server/bounded_queue.h"
#include "server/listener.h"

namespace nanocache::server {

struct ServerConfig {
  ListenSpec listen;
  /// Maximum request-line length in bytes (newline excluded).  Longer
  /// lines are rejected in-band with a kConfig error response.
  std::size_t max_line_bytes = 1u << 20;
  /// Admission-control bound: requests queued across all connections.
  std::size_t queue_capacity = 256;
  /// Worker threads evaluating requests (0 = par::default_threads()).
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

  /// Bind the listener and spawn the accept loop + worker pool.  Throws
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
  /// One accepted client connection: the socket, and the sequencer that
  /// restores response order when workers finish out of order.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}

    /// Hand back a result (from a worker, or from the reader when it
    /// answered inline); writes every line that became contiguous.
    void deliver(std::uint64_t seq, std::string line, Server& server);
    /// Half-close the read side so a blocked reader unblocks with EOF.
    void shutdown_read();
    /// Close the socket once the reader is done and every admitted
    /// request was answered (the client then sees EOF).  Idempotent.
    void close_if_drained();
    void close();

    std::mutex mutex;
    int fd;
    /// Out-of-order results parked until their turn (seq -> line).
    std::map<std::uint64_t, std::string> pending;
    std::uint64_t next_write_seq = 0;
    std::uint64_t enqueued = 0;  ///< seqs assigned by the reader
    std::uint64_t written = 0;   ///< responses flushed to the socket
    bool reader_done = false;
    bool write_failed = false;  ///< client went away; drop further writes
  };

  /// One unit of work: answer line `seq` of `conn`.
  struct Task {
    std::shared_ptr<Connection> conn;
    std::uint64_t seq = 0;
    std::uint64_t line_number = 0;  ///< 1-based input line (batch parity)
    bool too_long = false;
    std::string line;
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void worker_loop();
  /// Raise evaluating_ for an inline answer if it is below the worker
  /// count; false (nothing raised) when the pool is already saturated.
  bool try_claim_inline_slot();
  /// Answer one task on the calling thread and hand the line to its
  /// connection's sequencer.
  void answer(const Task& task);
  /// Compute the response line (no trailing newline) for one task.
  std::string respond(const Task& task);
  /// Join reader threads whose connection already drained (bounds thread
  /// accumulation on a long-lived server).  Called from the accept loop.
  void reap_finished_readers();

  std::shared_ptr<api::Service> service_;
  ServerConfig config_;

  std::optional<Listener> listener_;
  bool started_ = false;
  int wake_pipe_[2] = {-1, -1};

  BoundedQueue<Task> queue_;
  std::vector<std::thread> workers_;
  /// Requests being answered right now, inline or by a worker.
  std::atomic<int> evaluating_{0};
  std::thread accept_thread_;

  std::mutex connections_mutex_;
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>>
      connections_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_admitted_{0};
  std::atomic<std::uint64_t> responses_written_{0};
  std::atomic<std::uint64_t> lines_rejected_too_long_{0};
  std::atomic<std::uint64_t> control_requests_{0};
};

}  // namespace nanocache::server
