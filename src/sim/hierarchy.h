// Two-level cache hierarchy driven by a trace: unified L1 -> unified L2 ->
// main memory, write-allocate/write-back at both levels.  Produces the
// local miss statistics Section 5's AMAT and energy models consume.
#pragma once

#include <cstdint>

#include "sim/cache.h"
#include "sim/trace.h"

namespace nanocache::sim {

/// Local (per-level) statistics of one hierarchy run.
struct HierarchyStats {
  std::uint64_t references = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t memory_accesses = 0;
  std::uint64_t l1_writebacks = 0;
  std::uint64_t l2_writebacks = 0;

  double l1_miss_rate() const {
    return references == 0 ? 0.0
                           : static_cast<double>(l1_misses) / references;
  }
  /// Local L2 miss rate (misses per L2 access), the paper's mL2.
  double l2_local_miss_rate() const {
    return l2_accesses == 0 ? 0.0
                            : static_cast<double>(l2_misses) / l2_accesses;
  }
};

class TwoLevelHierarchy {
 public:
  /// Caches are moved in; L2 block size must be >= L1 block size and both
  /// must divide evenly.
  TwoLevelHierarchy(SetAssociativeCache l1, SetAssociativeCache l2);

  /// Process one reference through the hierarchy.
  void access(std::uint64_t address, bool is_write);

  /// Drive `count` references from `trace`.
  void run(TraceSource& trace, std::uint64_t count);

  /// Warm up (references processed but not counted in stats).
  void warmup(TraceSource& trace, std::uint64_t count);

  const HierarchyStats& stats() const { return stats_; }
  void reset_stats();

  const SetAssociativeCache& l1() const { return l1_; }
  const SetAssociativeCache& l2() const { return l2_; }

 private:
  /// L2-side handling of L1 misses and dirty L1 victims.
  void access_l2(std::uint64_t address, bool is_write);

  SetAssociativeCache l1_;
  SetAssociativeCache l2_;
  HierarchyStats stats_;
};

/// Split-L1 hierarchy: separate instruction and data L1s in front of a
/// shared unified L2 — the organization real processors of the paper's era
/// used.  The I-side is read-only (no writebacks); both sides' misses and
/// the D-side's dirty victims share the L2.
class SplitL1Hierarchy {
 public:
  SplitL1Hierarchy(SetAssociativeCache l1i, SetAssociativeCache l1d,
                   SetAssociativeCache l2);

  void access_instruction(std::uint64_t pc);
  void access_data(std::uint64_t address, bool is_write);

  struct Stats {
    std::uint64_t instruction_refs = 0;
    std::uint64_t data_refs = 0;
    std::uint64_t l1i_misses = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t memory_accesses = 0;

    double l1i_miss_rate() const {
      return instruction_refs == 0
                 ? 0.0
                 : static_cast<double>(l1i_misses) / instruction_refs;
    }
    double l1d_miss_rate() const {
      return data_refs == 0 ? 0.0
                            : static_cast<double>(l1d_misses) / data_refs;
    }
    double l2_local_miss_rate() const {
      return l2_accesses == 0
                 ? 0.0
                 : static_cast<double>(l2_misses) / l2_accesses;
    }
  };

  const Stats& stats() const { return stats_; }
  void reset_stats();

  const SetAssociativeCache& l1i() const { return l1i_; }
  const SetAssociativeCache& l1d() const { return l1d_; }
  const SetAssociativeCache& l2() const { return l2_; }

 private:
  void access_l2(std::uint64_t address, bool is_write);

  SetAssociativeCache l1i_;
  SetAssociativeCache l1d_;
  SetAssociativeCache l2_;
  Stats stats_;
};

}  // namespace nanocache::sim
