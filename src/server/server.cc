#include "server/server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "api/batch_io.h"
#include "api/metrics_json.h"
#include "server/line_reader.h"
#include "util/error.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace nanocache::server {

namespace {

/// A client that stops reading forfeits its remaining responses after this
/// long, instead of parking its connection's thread in send() forever.
constexpr int kSendTimeoutSeconds = 30;

/// Signal handlers may only touch async-signal-safe state: they write one
/// byte into the server's wake pipe, and the accept loop does the rest.
std::atomic<int> g_signal_wake_fd{-1};

void on_terminate_signal(int /*signum*/) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

/// Write all of `out`; false once the client is gone (broken pipe, reset,
/// or a client that ignored us past the send timeout).
bool send_all(int fd, const std::string& out) {
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Holds one evaluation slot for its lifetime, and counts itself in the
/// server.peak_evaluating high watermark.
class EvaluationSlot {
 public:
  EvaluationSlot(std::counting_semaphore<>& slots,
                 std::atomic<int>& evaluating)
      : slots_(slots), evaluating_(evaluating) {
    static auto& peak =
        metrics::Registry::instance().gauge("server.peak_evaluating");
    slots_.acquire();
    peak.record_max(evaluating_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  ~EvaluationSlot() {
    evaluating_.fetch_sub(1, std::memory_order_relaxed);
    slots_.release();
  }
  EvaluationSlot(const EvaluationSlot&) = delete;
  EvaluationSlot& operator=(const EvaluationSlot&) = delete;

 private:
  std::counting_semaphore<>& slots_;
  std::atomic<int>& evaluating_;
};

}  // namespace

// --- Connection -----------------------------------------------------------

void Server::Connection::shutdown_read() {
  std::lock_guard<std::mutex> lock(mutex);
  if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

void Server::Connection::close() {
  std::lock_guard<std::mutex> lock(mutex);
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

bool Server::Connection::closed() {
  std::lock_guard<std::mutex> lock(mutex);
  return fd < 0;
}

// --- Server lifecycle -----------------------------------------------------

Server::Server(std::shared_ptr<api::Service> service, ServerConfig config)
    : service_(std::move(service)),
      config_(std::move(config)),
      slots_(config_.workers > 0 ? config_.workers : par::default_threads()) {
}

Server::~Server() {
  if (started_) {
    shutdown();
    wait();
  }
  int expected = wake_pipe_[1];
  g_signal_wake_fd.compare_exchange_strong(expected, -1,
                                           std::memory_order_relaxed);
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void Server::start() {
  NC_REQUIRE_INTERNAL(!started_, "Server::start called twice");
  listener_.emplace(Listener::open(config_.listen));
  NC_REQUIRE_IO(::pipe(wake_pipe_) == 0,
                std::string("pipe: ") + std::strerror(errno));
  // The write end is hit from signal handlers: never let it block.
  ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void Server::shutdown() {
  const int fd = wake_pipe_[1];
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void Server::install_signal_handlers(Server& server) {
  NC_REQUIRE_INTERNAL(server.started_,
                      "install_signal_handlers needs a started server");
  g_signal_wake_fd.store(server.wake_pipe_[1], std::memory_order_relaxed);
  // Broken client connections must surface as send() errors on their
  // connection's thread, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa {};
  sa.sa_handler = on_terminate_signal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

int Server::tcp_port() const {
  return listener_ ? listener_->bound_port() : 0;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  s.responses_written = responses_written_.load(std::memory_order_relaxed);
  s.lines_rejected_too_long =
      lines_rejected_too_long_.load(std::memory_order_relaxed);
  s.control_requests = control_requests_.load(std::memory_order_relaxed);
  return s;
}

// --- accept / read / answer ----------------------------------------------

void Server::accept_loop() {
  static auto& connections =
      metrics::Registry::instance().counter("server.connections");
  for (;;) {
    const int fd = listener_->accept(wake_pipe_[0]);
    if (fd < 0) break;
    // Bound how long a non-reading client can park its thread in send().
    timeval timeout{};
    timeout.tv_sec = kSendTimeoutSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections.add();
    auto conn = std::make_unique<Connection>(fd);
    std::thread reader([this, c = conn.get()] { reader_loop(*c); });
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.emplace_back(std::move(conn), std::move(reader));
    }
    reap_finished_readers();
  }

  // ---- graceful drain ----------------------------------------------------
  // Stop admitting: close the listener (and unlink a unix socket path) so
  // new connects fail fast while we drain.
  listener_->close();
  std::vector<std::pair<std::unique_ptr<Connection>, std::thread>> conns;
  {
    // Stop reading: readers wake with EOF, finishing any lines their
    // buffers already hold.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& [conn, thread] : connections_) conn->shutdown_read();
    conns.swap(connections_);
  }
  // Each reader answers what it already read, then closes its socket, so
  // its client sees EOF after its final response line.
  for (auto& [conn, thread] : conns) thread.join();
  // Durability before exit: entries computed this run survive to the next.
  service_->flush_disk_cache();
}

void Server::reap_finished_readers() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if (it->first->closed()) {
        finished.push_back(std::move(it->second));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& thread : finished) thread.join();
}

void Server::reader_loop(Connection& conn) {
  static auto& requests =
      metrics::Registry::instance().counter("server.requests");
  // Requests evaluate serially, exactly like one of run_batch's workers:
  // cross-request concurrency comes from the slot count.
  par::SerialRegionGuard serial;
  // Only this thread closes the socket, so its fd is stable until then.
  const int fd = conn.fd;
  LineReader reader(fd, config_.max_line_bytes);
  std::string line;
  std::uint64_t line_number = 0;
  bool write_failed = false;
  for (;;) {
    const LineStatus status = reader.next(line);
    if (status == LineStatus::kEof) break;
    ++line_number;
    const bool too_long = status == LineStatus::kTooLong;
    if (!too_long && line.find_first_not_of(" \t") == std::string::npos) {
      // Blank lines are counted but unanswered — the batch reader's rule,
      // so in-band "line N" error messages agree byte for byte.
      continue;
    }
    // Count BEFORE answering: a metrics control request must observe every
    // admission up to and including its own.
    requests_admitted_.fetch_add(1, std::memory_order_relaxed);
    requests.add();
    std::string out;
    {
      EvaluationSlot slot(slots_, evaluating_);
      out = respond(too_long, line, line_number);
    }
    // The slot is free before the write: a client that stops reading
    // blocks only its own connection, in send(), up to the send timeout.
    // After a failed write the connection keeps answering (draining its
    // requests) but stops writing.
    out += '\n';
    if (!write_failed) {
      write_failed = !send_all(fd, out);
      if (!write_failed) {
        responses_written_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  conn.close();
}

std::string Server::respond(bool too_long, const std::string& line,
                            std::uint64_t line_number) {
  if (too_long) {
    static auto& rejected_lines =
        metrics::Registry::instance().counter("server.rejected_lines");
    lines_rejected_too_long_.fetch_add(1, std::memory_order_relaxed);
    rejected_lines.add();
    api::Response r;
    r.ok = false;
    r.error.code = api::ErrorCode::kConfig;
    r.error.message = "line " + std::to_string(line_number) +
                      ": request line exceeds the maximum length of " +
                      std::to_string(config_.max_line_bytes) + " bytes";
    return api::response_line(r);
  }
  // The line is parsed once.  {"kind":"metrics"} is a server-layer control
  // request: RequestKind has no metrics member, so it is intercepted before
  // the batch schema sees the root.  Malformed JSON leaves `root` empty and
  // goes to parse_request_json, which reports it exactly as the batch
  // reader would.
  json::ValuePtr root;
  try {
    root = json::parse(line);
    const auto kind = root->get("kind");
    if (kind && kind->is_string() && kind->as_string() == "metrics") {
      control_requests_.fetch_add(1, std::memory_order_relaxed);
      const auto id = root->get("id");
      return api::metrics_response_line(
          id && id->is_string() ? id->as_string() : std::string());
    }
  } catch (const Error&) {
  }
  auto parsed = root ? api::parse_request_value(root)
                     : api::parse_request_json(line);
  if (!parsed.ok()) {
    api::Response r;
    r.ok = false;
    r.error = parsed.error();
    r.error.message =
        "line " + std::to_string(line_number) + ": " + r.error.message;
    return api::response_line(r);
  }
  if (parsed.value().kind == api::RequestKind::kCapabilities) {
    control_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  return api::response_line(service_->serve(parsed.value()));
}

}  // namespace nanocache::server
