#include "api/disk_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <utility>

#include "util/error.h"
#include "util/metrics.h"
#include "util/segment.h"

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

/// Version 2 keys entries by canonical request lines; a version-1
/// segment (per-field keys) resets on open.
constexpr int kSegmentVersion = 2;

}  // namespace

std::unique_ptr<DiskCache> DiskCache::open(const std::string& dir,
                                           const std::string& fingerprint) {
  NC_REQUIRE(!dir.empty(), "disk cache directory must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  NC_REQUIRE_IO(!ec, "cannot create cache directory '" + dir +
                         "': " + ec.message());

  auto cache = std::unique_ptr<DiskCache>(new DiskCache());
  cache->path_ =
      (std::filesystem::path(dir) / ("nanocache-" + fingerprint + ".jsonl"))
          .string();
  // A damaged entry drops alone (the lookup path recomputes and re-stores
  // it); a header of another version or fingerprint resets the segment,
  // whose entries cannot be trusted here.
  const segment::Header header{"nanocache_cache", kSegmentVersion,
                               fingerprint, ""};
  const auto loaded = segment::read(
      cache->path_, header, [&](std::string key, std::string response) {
        cache->entries_.emplace(std::move(key), std::move(response));
      });
  cache->corrupt_lines_ = loaded.corrupt_lines;
  disk_counters().corrupt.add(loaded.corrupt_lines);
  if (loaded.status == segment::Status::kRejected) {
    disk_counters().resets.add(1);
  }
  const bool rewrite = loaded.status != segment::Status::kLoaded;

  // Opening for append here (not per store) surfaces a read-only segment
  // at open, not mid-batch.
  cache->fd_ = ::open(cache->path_.c_str(),
                      O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC |
                          (rewrite ? O_TRUNC : 0),
                      0644);
  NC_REQUIRE_IO(cache->fd_ >= 0,
                "cannot append to cache segment: " + cache->path_);
  if (rewrite) {
    NC_REQUIRE_IO(cache->append_line(segment::header_line(header)),
                  "cannot write cache segment: " + cache->path_);
  }
  return cache;
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
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A racing duplicate returns here: the first store wins.
    if (!entries_.emplace(key, response_json).second) return;
    ++stores_;
    disk_counters().stores.add(1);
    if (!writable_) return;
  }
  // Only the inserting thread appends, so each key goes out once, and
  // lookups never wait on the write() below.
  if (!append_line(segment::entry_line(key, response_json))) {
    // Persistence failed mid-run (disk full, file size limit).  The
    // in-memory copy keeps serving this run; stop appending rather than
    // failing requests that already computed fine.
    std::lock_guard<std::mutex> lock(mutex_);
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
