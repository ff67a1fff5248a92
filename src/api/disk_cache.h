// Persistent cross-run result cache under api::MemoCache: one segment
// file (util/segment.h) mapping canonical request lines — the
// request_canonical_key batch dedup uses — to id-stripped response lines.
// The segment is bound to one library fingerprint (a hash over everything
// that can change an answer), so a differently configured run reads and
// writes a different file:
//
//   <dir>/nanocache-<fingerprint>.jsonl
//     {"nanocache_cache":2,"fingerprint":"<16 hex>"}
//     {"key":"<request line>","checksum":"<16 hex>","value":"<response line>"}
//
// Robustness is strictly "never a wrong answer": a damaged entry is dropped
// (api.disk.corrupt_lines) and recomputed; a header of another version or
// fingerprint, a version-1 segment included, resets the whole segment
// (api.disk.segment_resets).  Only an unusable cache *directory* is an
// error (Error(kIo) from open()).
//
// Concurrency: entries load fully into memory at open(); lookups and the
// insert-on-store run under one mutex, and the storing thread appends its
// entry after releasing it.  The segment stays open (O_APPEND) and each
// entry goes out in one write(), so concurrent appenders never interleave
// within a line.  A hit re-parses the stored line with
// parse_response_json, whose round-trip exactness keeps cached responses
// byte-identical to freshly computed ones.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace nanocache::api {

class DiskCache {
 public:
  /// Open (creating as needed) the segment for `fingerprint` inside `dir`.
  /// Creates the directory, validates the header (resetting a segment of
  /// another version or fingerprint), loads all intact entries.
  /// Throws Error(kIo) when the directory or segment cannot be created or
  /// written — a cache that cannot persist is a configuration error, not a
  /// silent no-op.
  static std::unique_ptr<DiskCache> open(const std::string& dir,
                                         const std::string& fingerprint);

  /// The stored response line for `key`, or nullopt (miss).  Counts into
  /// hits()/misses() and the api.disk.* metrics.
  std::optional<std::string> lookup(const std::string& key);

  /// Append (key -> response_json) unless the key is already present.
  /// Each entry is one write() on the open segment; a failed append
  /// disables further writes for this run (the in-memory copy stays
  /// serving) rather than throwing mid-batch.
  void store(const std::string& key, const std::string& response_json);

  /// Durability barrier: fsync the segment file.  store() hands each
  /// append to the OS page cache; flush() pushes the segment to stable
  /// storage (a server shutting down calls this).  Returns the in-memory
  /// entry count.  A failed sync degrades like a failed append: the
  /// in-memory copy keeps serving.
  std::size_t flush();

  ~DiskCache();
  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

  const std::string& path() const { return path_; }

  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t stores() const;
  /// Entries dropped while loading (truncated/garbage/checksum mismatch).
  std::size_t corrupt_lines() const;
  std::size_t entries() const;

 private:
  DiskCache() = default;
  /// One whole line in a single write(); false on any failure.
  bool append_line(const std::string& line);

  std::string path_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::string> entries_;
  int fd_ = -1;  ///< the open segment (O_APPEND), or -1
  bool writable_ = true;  ///< read and cleared under mutex_
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t stores_ = 0;
  std::size_t corrupt_lines_ = 0;
};

}  // namespace nanocache::api
