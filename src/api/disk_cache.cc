#include "api/disk_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/error.h"
#include "util/json.h"
#include "util/metrics.h"

namespace nanocache::api {

namespace {

struct DiskCounters {
  metrics::Counter& hits;
  metrics::Counter& misses;
  metrics::Counter& stores;
  metrics::Counter& corrupt;
  metrics::Counter& resets;
};

/// Process-wide observability counters; per-instance counts stay the
/// source of BatchStats.
DiskCounters& disk_counters() {
  static auto& registry = metrics::Registry::instance();
  static DiskCounters counters{
      registry.counter("api.disk.hits"), registry.counter("api.disk.misses"),
      registry.counter("api.disk.stores"),
      registry.counter("api.disk.corrupt_lines"),
      registry.counter("api.disk.segment_resets")};
  return counters;
}

std::string entry_checksum(const std::string& key,
                           const std::string& response) {
  return fnv1a64_hex(key + '\n' + response);
}

std::string header_line(const std::string& fingerprint) {
  return "{\"nanocache_cache\":1,\"fingerprint\":" + json::quote(fingerprint) +
         "}";
}

std::string entry_line(const std::string& key, const std::string& response) {
  return "{\"key\":" + json::quote(key) +
         ",\"checksum\":" + json::quote(entry_checksum(key, response)) +
         ",\"response\":" + json::quote(response) + "}";
}

}  // namespace

std::unique_ptr<DiskCache> DiskCache::open(const std::string& dir,
                                           const std::string& fingerprint) {
  NC_REQUIRE(!dir.empty(), "disk cache directory must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  NC_REQUIRE_IO(!ec, "cannot create cache directory '" + dir +
                         "': " + ec.message());

  auto cache = std::unique_ptr<DiskCache>(new DiskCache());
  cache->fingerprint_ = fingerprint;
  cache->path_ =
      (std::filesystem::path(dir) / ("nanocache-" + fingerprint + ".jsonl"))
          .string();
  cache->load();
  return cache;
}

void DiskCache::load() {
  bool rewrite = false;
  {
    std::ifstream in(path_);
    if (in.good()) {
      std::string line;
      if (!std::getline(in, line)) {
        rewrite = true;  // empty file: (re)write the header
      } else {
        // Validate the header; any mismatch (garbage, different
        // fingerprint) discards the whole segment — its entries answer for
        // a different configuration or cannot be trusted.
        bool header_ok = false;
        try {
          const auto root = json::parse(line);
          const auto magic = root->get("nanocache_cache");
          const auto fp = root->get("fingerprint");
          header_ok = magic != nullptr && magic->as_int() == 1 &&
                      fp != nullptr && fp->as_string() == fingerprint_;
        } catch (const Error&) {
          header_ok = false;
        }
        if (!header_ok) {
          rewrite = true;
          disk_counters().resets.add(1);
        } else {
          while (std::getline(in, line)) {
            if (line.empty()) continue;
            try {
              const auto root = json::parse(line);
              const auto key = root->get("key");
              const auto checksum = root->get("checksum");
              const auto response = root->get("response");
              NC_REQUIRE(key != nullptr && checksum != nullptr &&
                             response != nullptr,
                         "cache entry is missing a field");
              NC_REQUIRE(checksum->as_string() ==
                             entry_checksum(key->as_string(),
                                            response->as_string()),
                         "cache entry checksum mismatch");
              entries_.emplace(key->as_string(), response->as_string());
            } catch (const Error&) {
              // Truncated tail, garbage line, or checksum mismatch: drop
              // the entry; the lookup path recomputes and re-stores.
              ++corrupt_lines_;
              disk_counters().corrupt.add(1);
            }
          }
        }
      }
    } else {
      rewrite = true;  // no segment yet
    }
  }

  // Opening for append here (not per store) surfaces a read-only segment
  // at open, not mid-batch.
  open_segment(rewrite);
  if (rewrite) {
    NC_REQUIRE_IO(append_line(header_line(fingerprint_) + '\n'),
                  "cannot write cache segment: " + path_);
  }
}

void DiskCache::open_segment(bool truncate) {
  fd_ = ::open(path_.c_str(),
               O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC |
                   (truncate ? O_TRUNC : 0),
               0644);
  NC_REQUIRE_IO(fd_ >= 0, "cannot append to cache segment: " + path_);
}

bool DiskCache::append_line(const std::string& line) {
  // A regular file takes the whole buffer or fails; a short count (disk
  // full part-way) is a failure all the same.
  const ssize_t n = ::write(fd_, line.data(), line.size());
  return n == static_cast<ssize_t>(line.size());
}

DiskCache::~DiskCache() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<std::string> DiskCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    disk_counters().misses.add(1);
    return std::nullopt;
  }
  ++hits_;
  disk_counters().hits.add(1);
  return it->second;
}

void DiskCache::store(const std::string& key,
                      const std::string& response_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.emplace(key, response_json);
  if (!inserted) return;  // racing duplicate: first store wins
  ++stores_;
  disk_counters().stores.add(1);
  if (!writable_) return;
  if (!append_line(entry_line(key, response_json) + '\n')) {
    // Persistence failed mid-run (disk full, file size limit).  The
    // in-memory copy keeps serving this run; stop appending rather than
    // failing requests that already computed fine.
    writable_ = false;
    metrics::Registry::instance().counter("api.disk.write_errors").add(1);
  }
}

std::size_t DiskCache::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (writable_ && ::fsync(fd_) != 0) {
    metrics::Registry::instance().counter("api.disk.write_errors").add(1);
  }
  return entries_.size();
}

std::size_t DiskCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}
std::size_t DiskCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}
std::size_t DiskCache::stores() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stores_;
}
std::size_t DiskCache::corrupt_lines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return corrupt_lines_;
}
std::size_t DiskCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace nanocache::api
