#include "sim/cache.h"

#include <limits>

#include "util/error.h"

namespace nanocache::sim {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

SetAssociativeCache::SetAssociativeCache(std::uint64_t size_bytes,
                                         std::uint32_t block_bytes,
                                         std::uint32_t associativity)
    : size_bytes_(size_bytes),
      block_bytes_(block_bytes),
      assoc_(associativity) {
  NC_REQUIRE(is_pow2(size_bytes_), "cache size must be a power of two");
  NC_REQUIRE(is_pow2(block_bytes_) && block_bytes_ >= 8,
             "block size must be a power of two >= 8");
  NC_REQUIRE(is_pow2(assoc_) && assoc_ >= 1,
             "associativity must be a power of two >= 1");
  NC_REQUIRE(size_bytes_ >= static_cast<std::uint64_t>(block_bytes_) * assoc_,
             "cache must hold at least one set");
  num_sets_ = size_bytes_ / (static_cast<std::uint64_t>(block_bytes_) * assoc_);
  lines_.resize(num_sets_ * assoc_);
}

std::uint32_t SetAssociativeCache::pick_victim(std::uint64_t set_index) const {
  const Line* set = &lines_[set_index * assoc_];
  // Prefer an invalid way, else the least recently used one.
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (!set[w].valid) return w;
  }
  std::uint32_t victim = 0;
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (set[w].last_access < oldest) {
      oldest = set[w].last_access;
      victim = w;
    }
  }
  return victim;
}

void SetAssociativeCache::enable_decay(std::uint64_t interval_accesses) {
  decay_interval_ = interval_accesses;
}

void SetAssociativeCache::accrue_awake(const Line& line) {
  if (decay_interval_ == 0 || !line.valid) return;
  const std::uint64_t since =
      tick_ - std::max(line.last_access, stats_start_tick_);
  awake_line_ticks_ +=
      static_cast<double>(std::min(since, decay_interval_));
}

double SetAssociativeCache::average_live_fraction() const {
  if (decay_interval_ == 0) return 1.0;
  const std::uint64_t window = tick_ - stats_start_tick_;
  if (window == 0) return 1.0;
  // Accrued awake time of retired intervals plus the still-open intervals
  // of currently valid lines.
  double awake = awake_line_ticks_;
  for (const auto& line : lines_) {
    if (!line.valid) continue;
    const std::uint64_t since =
        tick_ - std::max(line.last_access, stats_start_tick_);
    awake += static_cast<double>(std::min(since, decay_interval_));
  }
  return awake /
         (static_cast<double>(lines_.size()) * static_cast<double>(window));
}

void SetAssociativeCache::reset_stats() {
  stats_ = CacheStats{};
  stats_start_tick_ = tick_;
  awake_line_ticks_ = 0.0;
}

AccessResult SetAssociativeCache::access(std::uint64_t address, bool is_write) {
  ++stats_.accesses;
  ++tick_;
  const std::uint64_t block = block_of(address);
  const std::uint64_t set_index = set_of(block);
  const std::uint64_t tag = tag_of(block);
  Line* set = &lines_[set_index * assoc_];

  AccessResult result;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (set[w].valid && set[w].tag == tag) {
      if (decayed(set[w])) {
        // The line is resident but asleep: state lost (gated Vdd).
        ++stats_.misses;
        ++stats_.decay_misses;
        accrue_awake(set[w]);
        if (set[w].dirty) {
          // Gated-Vdd implementations drain dirty lines when the decay
          // timer fires; charge the writeback here, where it is observed.
          result.writeback = true;
          result.evicted_block = set[w].tag * num_sets_ + set_index;
          ++stats_.writebacks;
        }
        set[w].tag = tag;
        set[w].dirty = is_write;
        set[w].last_access = tick_;
        return result;
      }
      result.hit = true;
      if (is_write) set[w].dirty = true;
      accrue_awake(set[w]);
      set[w].last_access = tick_;
      return result;
    }
  }

  ++stats_.misses;
  const std::uint32_t victim = pick_victim(set_index);
  Line& line = set[victim];
  if (line.valid) {
    accrue_awake(line);
    result.evicted_block = line.tag * num_sets_ + set_index;
    // A dirty line is drained exactly once — at the decay timer for
    // sleeping lines (observed lazily) or here at eviction; either way it
    // is charged at the moment its story ends.
    if (line.dirty) {
      result.writeback = true;
      ++stats_.writebacks;
    }
  }
  line.valid = true;
  line.tag = tag;
  line.dirty = is_write;
  line.last_access = tick_;
  return result;
}

bool SetAssociativeCache::contains(std::uint64_t address) const {
  const std::uint64_t block = block_of(address);
  const std::uint64_t set_index = set_of(block);
  const std::uint64_t tag = tag_of(block);
  const Line* set = &lines_[set_index * assoc_];
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (set[w].valid && set[w].tag == tag) return !decayed(set[w]);
  }
  return false;
}

}  // namespace nanocache::sim
