// Persistent cross-run result cache under api::MemoCache.
//
// A DiskCache holds one JSONL segment file of (request key -> serialized
// response) entries, content-addressed by the same canonical bit-pattern
// request keys the in-memory batch dedup uses.  The segment is bound to one
// library fingerprint — a hash over everything that can change an answer
// (model configuration, grid bit patterns, schema + API version, search
// mode) — so a run with a different configuration reads from, and writes
// to, a different file instead of mixing results.
//
// File layout (one directory may hold segments of many configurations):
//
//   <dir>/nanocache-<fingerprint>.jsonl
//     {"nanocache_cache":1,"fingerprint":"<16 hex>"}          <- header
//     {"key":"...","checksum":"<16 hex>","response":"{...}"}  <- entries
//
// Each entry carries an FNV-1a-64 checksum over `key + '\n' + response`.
// Robustness is strictly "never a wrong answer": a truncated tail line, a
// garbage line, or a checksum mismatch drops that entry (counted in
// api.disk.corrupt_lines) and the lookup falls through to computation; a
// header that does not match the expected fingerprint discards the whole
// segment and rewrites it.  Only an unusable cache *directory* is an error
// (Error(kIo) from open()), because the caller asked for persistence it
// cannot have.
//
// Concurrency: entries load fully into memory at open(); lookups and the
// append-on-store run under one mutex.  The segment stays open (O_APPEND)
// for the cache's lifetime and each entry line goes out in one write(), so
// a store costs no open/close and concurrent appenders never interleave
// within a line.  The cache stores serialized
// response lines, not structs — a hit re-parses with parse_response_json,
// whose round-trip exactness keeps cached responses byte-identical to
// freshly computed ones.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/hash.h"

namespace nanocache::api {

/// FNV-1a 64-bit hash, fixed-width lower-case hex (now in util so the
/// surrogate store can share it).  Re-exported here for the existing
/// segment-checksum and fingerprint call sites.
using ::nanocache::fnv1a64_hex;

class DiskCache {
 public:
  /// Open (creating as needed) the segment for `fingerprint` inside `dir`.
  /// Creates the directory, validates the header, loads all intact entries.
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
  void load();
  /// Open the segment for appending (truncating it first when `truncate`);
  /// throws Error(kIo) when it cannot be opened.
  void open_segment(bool truncate);
  /// One whole line in a single write(); false on any failure.
  bool append_line(const std::string& line);

  std::string path_;
  std::string fingerprint_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::string> entries_;
  int fd_ = -1;  ///< the open segment (O_APPEND), or -1
  bool writable_ = true;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t stores_ = 0;
  std::size_t corrupt_lines_ = 0;
};

}  // namespace nanocache::api
