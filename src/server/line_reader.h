// Per-connection line framing with a bounded line length.
//
// The wire format is newline-delimited JSON, so the reader's job is
// std::getline over a socket — with two server-specific hardenings:
//
//  * CRLF tolerance: a trailing '\r' is stripped, matching the batch
//    reader (run_batch_jsonl), so Windows-ish clients see identical
//    responses.
//  * Bounded memory: a line longer than `max_line_bytes` can never make
//    the server buffer it.  The reader discards the oversized line's bytes
//    up to its terminating newline (holding at most one chunk at a time)
//    and reports it as kTooLong exactly once, so the server can answer
//    with an in-band error response and KEEP the connection — the framing
//    stays synchronized because discarding consumed through the newline.
//
// EOF semantics match std::getline: a final unterminated line (client
// half-closed mid-line, "partial line then disconnect") is still yielded
// as a line, then the next call reports kEof.
#pragma once

#include <cstddef>
#include <string>

namespace nanocache::server {

enum class LineStatus {
  kLine,     ///< `line` holds the next frame ('\n' and trailing '\r' removed)
  kTooLong,  ///< a frame exceeded max_line_bytes and was discarded whole
  kEof,      ///< connection read side is done
};

class LineReader {
 public:
  /// Reads frames from `fd` (a connected stream socket the caller keeps
  /// open for the reader's lifetime).  `max_line_bytes` bounds the payload
  /// length of one frame, newline excluded.
  LineReader(int fd, std::size_t max_line_bytes);

  /// Blocking: the next frame, an oversized-frame report, or EOF.
  LineStatus next(std::string& line);

 private:
  /// Append the next chunk from fd_; flips eof_ on close or hard error.
  void fill();

  int fd_;
  std::size_t max_line_bytes_;
  std::string buffer_;
  /// Bytes of an oversized frame discarded so far (0 = not discarding).
  std::size_t discarded_ = 0;
  bool eof_ = false;
};

}  // namespace nanocache::server
