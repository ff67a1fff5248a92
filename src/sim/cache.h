// Trace-driven set-associative LRU cache.  This is the
// architectural-simulation substrate behind the paper's Section 5 miss
// statistics.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/trace.h"

namespace nanocache::sim {

/// Outcome of one cache lookup.
struct AccessResult {
  bool hit = false;
  bool writeback = false;              ///< eviction of a dirty line occurred
  std::uint64_t evicted_block = 0;     ///< block address of the victim
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  /// Misses caused by decay (line was resident but asleep).  Subset of
  /// `misses`.  Only non-zero when decay is enabled.
  std::uint64_t decay_misses = 0;

  double miss_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / accesses;
  }
};

class SetAssociativeCache {
 public:
  SetAssociativeCache(std::uint64_t size_bytes, std::uint32_t block_bytes,
                      std::uint32_t associativity);

  /// Look up `address`; on miss, allocate (write-allocate, writeback) and
  /// evict the least recently used way.
  AccessResult access(std::uint64_t address, bool is_write);

  /// Probe without updating state; true if resident.
  bool contains(std::uint64_t address) const;

  /// Enable cache decay (gated-Vdd-style, state-destroying): a line
  /// untouched for `interval_accesses` cache accesses is put to sleep.
  /// Re-referencing a sleeping line is a miss (counted in decay_misses; a
  /// dirty sleeping line is written back at that point).  Time is measured
  /// in accesses to this cache.  Pass 0 to disable (default).
  void enable_decay(std::uint64_t interval_accesses);
  std::uint64_t decay_interval() const { return decay_interval_; }

  /// Time-averaged fraction of lines awake, over the window since stats
  /// were last reset.  1.0 when decay is disabled or nothing ran.
  double average_live_fraction() const;

  void reset_stats();
  const CacheStats& stats() const { return stats_; }

  std::uint64_t size_bytes() const { return size_bytes_; }
  std::uint32_t block_bytes() const { return block_bytes_; }
  std::uint32_t associativity() const { return assoc_; }
  std::uint64_t num_sets() const { return num_sets_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    /// Tick of the last touch: both the LRU order and the decay clock.
    std::uint64_t last_access = 0;
  };

  bool decayed(const Line& line) const {
    return decay_interval_ != 0 && line.valid &&
           tick_ - line.last_access > decay_interval_;
  }
  /// Account the awake interval a line accrued since its last access.
  void accrue_awake(const Line& line);

  std::uint64_t block_of(std::uint64_t address) const {
    return address / block_bytes_;
  }
  std::uint64_t set_of(std::uint64_t block) const {
    return block % num_sets_;
  }
  std::uint64_t tag_of(std::uint64_t block) const {
    return block / num_sets_;
  }
  std::uint32_t pick_victim(std::uint64_t set_index) const;

  std::uint64_t size_bytes_;
  std::uint32_t block_bytes_;
  std::uint32_t assoc_;
  std::uint64_t num_sets_;
  std::vector<Line> lines_;  ///< num_sets * assoc, set-major
  std::uint64_t tick_ = 0;
  std::uint64_t decay_interval_ = 0;
  std::uint64_t stats_start_tick_ = 0;
  double awake_line_ticks_ = 0.0;
  CacheStats stats_;
};

}  // namespace nanocache::sim
