// The one on-disk segment format, shared by the disk result cache and the
// surrogate optimize ladders: a JSONL header line, then checksummed entries.
//
//   {"<magic>":<version>,"fingerprint":"<16 hex>","stamp":"..."}  <- header
//   {"key":"...","checksum":"<16 hex>","value":"..."}              <- entries
//
// The magic names the store, the version its entry semantics, the
// fingerprint the configuration the entries answer for; "stamp" is written
// only when non-empty.  The checksum is FNV-1a-64 over key + '\n' + value.
// Reading never yields a wrong entry: a header of another magic, version
// or fingerprint rejects the segment whole (what that means is the
// caller's policy), and a damaged entry line is dropped and counted.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace nanocache::segment {

struct Header {
  std::string magic;
  int version = 0;
  std::string fingerprint;
  std::string stamp;
};

/// Newline-terminated header and entry lines.
std::string header_line(const Header& header);
std::string entry_line(const std::string& key, const std::string& value);

/// kMissing: no file, or no header line in it.
enum class Status { kMissing, kRejected, kLoaded };

struct ReadResult {
  Status status = Status::kMissing;
  std::string stamp;              ///< the header's (kLoaded only)
  std::size_t corrupt_lines = 0;  ///< entry lines dropped
};

/// Read the segment at `path` against `expected` (its stamp is ignored),
/// handing each intact entry to `on_entry` in file order; an entry whose
/// `on_entry` throws nanocache::Error counts as corrupt.  File contents
/// never make it throw.
ReadResult read(
    const std::string& path, const Header& expected,
    const std::function<void(std::string key, std::string value)>& on_entry);

}  // namespace nanocache::segment
