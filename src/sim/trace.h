// Address-trace abstraction consumed by the cache simulator.  Traces are
// pull-based streams, so synthetic generators of unbounded length compose.
#pragma once

#include <cstdint>

namespace nanocache::sim {

/// One memory reference.
struct Access {
  std::uint64_t address = 0;
  bool is_write = false;
};

/// Pull-based trace source.  next() returns successive references; sources
/// are infinite unless documented otherwise.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual Access next() = 0;
};

}  // namespace nanocache::sim
