// Closed-loop JSONL load generator for `nanocache_cli serve` over a unix
// socket.  Each connection keeps exactly one request in flight: it sends a
// line, waits for the response line, checks it, then sends the next — the
// behaviour of scripts that each wait for their reply.
//
//   nc_load --socket PATH --pool FILE --schedule FILE
//           [--seconds S] [--latencies FILE] [--id-prefix P]
//
// pool file: one template per line, four tab-separated fields
//   request_prefix  request_suffix  response_prefix  response_suffix
// A request is request_prefix + id + request_suffix; the only correct
// response is response_prefix + id + response_suffix.  Ids are
// "<P>c<connection>n<sequence>", unique per line of one invocation; give
// each invocation against one server its own prefix.
//
// schedule file: one line per connection, space-separated pool indices.
// Without --seconds every connection sends its schedule once; with it,
// connections cycle their schedules until the deadline.
//
// Prints one JSON object: sent, answered, mismatched, wall_s (first send to
// last response).  --latencies writes every send-to-response time in ns,
// one per line.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

struct Template {
  std::string req_prefix, req_suffix, resp_prefix, resp_suffix;
};

struct ConnResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t mismatched = 0;
  Clock::time_point first_send{};
  Clock::time_point last_response{};
  std::vector<std::uint64_t> latencies_ns;
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "nc_load: " << message << "\n";
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string::size_type start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    parts.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return parts;
}

std::vector<Template> read_pool(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read pool " + path);
  std::vector<Template> pool;
  std::string line;
  while (std::getline(in, line)) {
    const auto f = split(line, '\t');
    if (f.size() != 4) die("pool line needs 4 tab-separated fields");
    pool.push_back({f[0], f[1], f[2], f[3]});
  }
  return pool;
}

std::vector<std::vector<std::size_t>> read_schedule(const std::string& path,
                                                    std::size_t pool_size) {
  std::ifstream in(path);
  if (!in) die("cannot read schedule " + path);
  std::vector<std::vector<std::size_t>> schedule;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::size_t> indices;
    std::size_t index = 0;
    while (fields >> index) {
      if (index >= pool_size) die("schedule index out of range");
      indices.push_back(index);
    }
    if (indices.empty()) die("empty schedule line");
    schedule.push_back(std::move(indices));
  }
  if (schedule.empty()) die("empty schedule");
  return schedule;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) die("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) die("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    die("cannot connect to " + path);
  }
  return fd;
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Buffered newline-framed reader over a blocking socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool next(std::string& line) {
    while (true) {
      const auto pos = buffer_.find('\n', scanned_);
      if (pos != std::string::npos) {
        line.assign(buffer_, 0, pos);
        buffer_.erase(0, pos + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

std::mutex g_report_mutex;
int g_reported = 0;

void report_mismatch(const std::string& expected, const std::string& got) {
  std::lock_guard<std::mutex> lock(g_report_mutex);
  if (g_reported++ >= 3) return;
  std::cerr << "nc_load: mismatch\n  expected: " << expected.substr(0, 400)
            << "\n  got:      " << got.substr(0, 400) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, pool_path, schedule_path, latencies_path;
  std::string id_prefix;
  double seconds = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--socket") socket_path = value;
    else if (key == "--pool") pool_path = value;
    else if (key == "--schedule") schedule_path = value;
    else if (key == "--seconds") seconds = std::stod(value);
    else if (key == "--latencies") latencies_path = value;
    else if (key == "--id-prefix") id_prefix = value;
    else die("unknown flag " + key);
  }
  if (socket_path.empty() || pool_path.empty() || schedule_path.empty()) {
    die("usage: nc_load --socket PATH --pool FILE --schedule FILE "
        "[--seconds S] [--latencies FILE] [--id-prefix P]");
  }
  const auto pool = read_pool(pool_path);
  const auto schedule = read_schedule(schedule_path, pool.size());
  const std::size_t conns = schedule.size();

  std::vector<int> fds;
  for (std::size_t c = 0; c < conns; ++c) {
    fds.push_back(connect_unix(socket_path));
  }

  std::vector<ConnResult> results(conns);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point deadline{};

  auto run = [&](std::size_t c) {
    ConnResult& r = results[c];
    LineReader reader(fds[c]);
    const auto& mine = schedule[c];
    std::string request, expected, response;
    const std::string conn_prefix = id_prefix + "c" + std::to_string(c) + "n";
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    for (std::uint64_t n = 0;; ++n) {
      if (seconds <= 0.0 && n >= mine.size()) break;
      if (seconds > 0.0 && n > 0 && r.last_response >= deadline) break;
      const Template& t = pool[mine[n % mine.size()]];
      const std::string id = conn_prefix + std::to_string(n);
      request = t.req_prefix + id + t.req_suffix + "\n";
      expected = t.resp_prefix + id + t.resp_suffix;
      const auto start = Clock::now();
      if (n == 0) r.first_send = start;
      ++r.sent;
      if (!write_all(fds[c], request) || !reader.next(response)) break;
      r.last_response = Clock::now();
      ++r.answered;
      r.latencies_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              r.last_response - start)
              .count()));
      if (response != expected) {
        ++r.mismatched;
        report_mismatch(expected, response);
      }
    }
    ::shutdown(fds[c], SHUT_WR);
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) threads.emplace_back(run, c);
  while (ready.load() < conns) std::this_thread::yield();
  deadline = Clock::now() +
             std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
  go.store(true);
  for (auto& t : threads) t.join();
  for (const int fd : fds) ::close(fd);

  std::uint64_t sent = 0, answered = 0, mismatched = 0;
  Clock::time_point first = results[0].first_send;
  Clock::time_point last = results[0].last_response;
  for (const auto& r : results) {
    sent += r.sent;
    answered += r.answered;
    mismatched += r.mismatched;
    first = std::min(first, r.first_send);
    last = std::max(last, r.last_response);
  }
  if (!latencies_path.empty()) {
    std::ofstream out(latencies_path);
    for (const auto& r : results) {
      for (const auto ns : r.latencies_ns) out << ns << "\n";
    }
    if (!out) die("cannot write " + latencies_path);
  }
  const double wall_s = std::chrono::duration<double>(last - first).count();
  std::printf(
      "{\"sent\":%llu,\"answered\":%llu,\"mismatched\":%llu,"
      "\"wall_s\":%.9f}\n",
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(answered),
      static_cast<unsigned long long>(mismatched), wall_s);
  return 0;
}
