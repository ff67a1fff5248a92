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
/// long, instead of parking a worker (or its own reader) in send() forever.
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

/// High watermark of requests being answered at once, inline or pooled.
metrics::Gauge& peak_evaluating() {
  static auto& gauge =
      metrics::Registry::instance().gauge("server.peak_evaluating");
  return gauge;
}

}  // namespace

// --- Connection -----------------------------------------------------------

void Server::Connection::deliver(std::uint64_t seq, std::string line,
                                 Server& server) {
  std::lock_guard<std::mutex> lock(mutex);
  pending.emplace(seq, std::move(line));
  // Flush every line that just became contiguous: responses leave the
  // socket in request order no matter how workers interleaved.
  while (!pending.empty() && pending.begin()->first == next_write_seq) {
    const std::string& out = pending.begin()->second;
    if (!write_failed && fd >= 0) {
      std::size_t sent = 0;
      while (sent < out.size()) {
        const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          // Broken pipe, reset, or a client that ignored us past the send
          // timeout: keep draining its requests, stop writing.
          write_failed = true;
          break;
        }
        sent += static_cast<std::size_t>(n);
      }
      if (!write_failed) {
        server.responses_written_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    pending.erase(pending.begin());
    ++next_write_seq;
    ++written;
  }
  if (reader_done && written == enqueued && fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void Server::Connection::shutdown_read() {
  std::lock_guard<std::mutex> lock(mutex);
  if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

void Server::Connection::close_if_drained() {
  std::lock_guard<std::mutex> lock(mutex);
  if (reader_done && written == enqueued && fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void Server::Connection::close() {
  std::lock_guard<std::mutex> lock(mutex);
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// --- Server lifecycle -----------------------------------------------------

Server::Server(std::shared_ptr<api::Service> service, ServerConfig config)
    : service_(std::move(service)),
      config_(std::move(config)),
      queue_(config_.queue_capacity) {}

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

  const int workers =
      config_.workers > 0 ? config_.workers : par::default_threads();
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
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
  // Broken client connections must surface as send() errors on the worker,
  // not kill the process.
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

// --- accept / read / work -------------------------------------------------

void Server::accept_loop() {
  static auto& connections =
      metrics::Registry::instance().counter("server.connections");
  for (;;) {
    const int fd = listener_->accept(wake_pipe_[0]);
    if (fd < 0) break;
    // Bound how long a non-reading client can park a worker in send().
    timeval timeout{};
    timeout.tv_sec = kSendTimeoutSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections.add();
    auto conn = std::make_shared<Connection>(fd);
    std::thread reader([this, conn] { reader_loop(conn); });
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.emplace_back(conn, std::move(reader));
    }
    reap_finished_readers();
  }

  // ---- graceful drain ----------------------------------------------------
  // Stop admitting: close the listener (and unlink a unix socket path) so
  // new connects fail fast while we drain.
  listener_->close();
  {
    // Stop reading: readers wake with EOF, finishing any lines their
    // buffers already hold.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& [conn, thread] : connections_) conn->shutdown_read();
  }
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> conns;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    conns.swap(connections_);
  }
  // After the readers join, no new work can appear, and a request a reader
  // was answering inline has been delivered.  Workers keep draining the
  // queue the whole time, so a reader blocked on a full queue always makes
  // progress to its EOF.
  for (auto& [conn, thread] : conns) thread.join();
  queue_.close();
  for (auto& worker : workers_) worker.join();
  // Every admitted request is now answered: release the sockets so
  // clients see EOF after their final response line.
  for (auto& [conn, thread] : conns) conn->close();
  // Durability before exit: entries computed this run survive to the next.
  service_->flush_disk_cache();
}

void Server::reap_finished_readers() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      bool done = false;
      {
        std::lock_guard<std::mutex> conn_lock(it->first->mutex);
        done = it->first->reader_done && it->first->fd < 0;
      }
      if (done) {
        finished.push_back(std::move(it->second));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& thread : finished) thread.join();
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  static auto& requests =
      metrics::Registry::instance().counter("server.requests");
  static auto& answered_inline =
      metrics::Registry::instance().counter("server.answered_inline");
  // Requests answered inline evaluate serially, exactly like a worker's.
  par::SerialRegionGuard serial;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    fd = conn->fd;
  }
  LineReader reader(fd, config_.max_line_bytes);
  std::string line;
  std::uint64_t line_number = 0;
  for (;;) {
    const LineStatus status = reader.next(line);
    if (status == LineStatus::kEof) break;
    ++line_number;
    if (status == LineStatus::kLine &&
        line.find_first_not_of(" \t") == std::string::npos) {
      // Blank lines are counted but unanswered — the batch reader's rule,
      // so in-band "line N" error messages agree byte for byte.
      continue;
    }
    Task task;
    task.conn = conn;
    task.line_number = line_number;
    task.too_long = status == LineStatus::kTooLong;
    if (!task.too_long) task.line = std::move(line);
    bool alone = false;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      task.seq = conn->enqueued++;
      alone = conn->written + 1 == conn->enqueued;
    }
    // Count BEFORE answering or pushing: whoever answers frame N — this
    // thread, or a worker that pops it and snapshots the registry for a
    // metrics control request — must observe every admission up to and
    // including its own (the queue's mutex orders these relaxed increments
    // across threads).
    requests_admitted_.fetch_add(1, std::memory_order_relaxed);
    requests.add();
    // Answer here when nothing would run beside this request anyway: the
    // connection has no other request in flight, the client has not
    // pipelined a further line (those fan out across the pool), and fewer
    // requests than there are workers are being answered.  This skips the
    // queue handoff — a wake-up and a context switch — on every request of
    // a closed-loop client.
    if (alone && !reader.has_buffered_line() && try_claim_inline_slot()) {
      answered_inline.add();
      answer(task);
      evaluating_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (!queue_.push(std::move(task))) {
      // Shutdown closed the queue while we blocked: retract the seq (it is
      // the newest — nothing was assigned after it) and stop reading.  The
      // admission counts stay — the frame was received and admitted, the
      // drain just refused to serve it.
      std::lock_guard<std::mutex> lock(conn->mutex);
      --conn->enqueued;
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->reader_done = true;
  }
  conn->close_if_drained();
}

bool Server::try_claim_inline_slot() {
  // workers_ is fixed once start() spawned the accept loop (and so every
  // reader).
  const int workers = static_cast<int>(workers_.size());
  int busy = evaluating_.load(std::memory_order_relaxed);
  while (busy < workers) {
    if (evaluating_.compare_exchange_weak(busy, busy + 1,
                                          std::memory_order_relaxed)) {
      peak_evaluating().record_max(busy + 1);
      return true;
    }
  }
  return false;
}

void Server::worker_loop() {
  static auto& answered_pooled =
      metrics::Registry::instance().counter("server.answered_pooled");
  // Each worker evaluates its requests serially inline: cross-request
  // concurrency comes from the worker count, exactly like run_batch's
  // fan-out workers, and every response stays byte-identical to a serial
  // evaluation (the library's thread-count determinism contract).
  par::SerialRegionGuard serial;
  while (auto task = queue_.pop()) {
    peak_evaluating().record_max(
        evaluating_.fetch_add(1, std::memory_order_relaxed) + 1);
    answered_pooled.add();
    answer(*task);
    evaluating_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::answer(const Task& task) {
  std::string line = respond(task);
  line += '\n';
  task.conn->deliver(task.seq, std::move(line), *this);
}

std::string Server::respond(const Task& task) {
  if (task.too_long) {
    static auto& rejected_lines =
        metrics::Registry::instance().counter("server.rejected_lines");
    lines_rejected_too_long_.fetch_add(1, std::memory_order_relaxed);
    rejected_lines.add();
    api::Response r;
    r.ok = false;
    r.error.code = api::ErrorCode::kConfig;
    r.error.message = "line " + std::to_string(task.line_number) +
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
    root = json::parse(task.line);
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
                     : api::parse_request_json(task.line);
  if (!parsed.ok()) {
    api::Response r;
    r.ok = false;
    r.error = parsed.error();
    r.error.message =
        "line " + std::to_string(task.line_number) + ": " + r.error.message;
    return api::response_line(r);
  }
  if (parsed.value().kind == api::RequestKind::kCapabilities) {
    control_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  return api::response_line(service_->serve(parsed.value()));
}

}  // namespace nanocache::server
