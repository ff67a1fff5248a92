#include "sim/hierarchy.h"

#include "util/error.h"

namespace nanocache::sim {

TwoLevelHierarchy::TwoLevelHierarchy(SetAssociativeCache l1,
                                     SetAssociativeCache l2)
    : l1_(std::move(l1)), l2_(std::move(l2)) {
  NC_REQUIRE(l2_.block_bytes() >= l1_.block_bytes(),
             "L2 block must be >= L1 block");
  NC_REQUIRE(l2_.block_bytes() % l1_.block_bytes() == 0,
             "L2 block must be a multiple of L1 block");
  NC_REQUIRE(l2_.size_bytes() >= l1_.size_bytes(),
             "L2 must be at least as large as L1");
}

void TwoLevelHierarchy::access_l2(std::uint64_t address, bool is_write) {
  ++stats_.l2_accesses;
  const auto r2 = l2_.access(address, is_write);
  if (r2.writeback) {
    ++stats_.l2_writebacks;
    ++stats_.memory_accesses;
  }
  if (!r2.hit) {
    ++stats_.l2_misses;
    ++stats_.memory_accesses;  // line fill (or fetch-on-write) from memory
  }
}

void TwoLevelHierarchy::access(std::uint64_t address, bool is_write) {
  ++stats_.references;
  const auto r1 = l1_.access(address, is_write);
  if (r1.writeback) {
    ++stats_.l1_writebacks;
    // Dirty L1 victim is written into L2 (write-back, write-allocate).
    access_l2(r1.evicted_block * l1_.block_bytes(), /*is_write=*/true);
  }
  if (r1.hit) return;

  ++stats_.l1_misses;
  access_l2(address, /*is_write=*/false);
}

void TwoLevelHierarchy::run(TraceSource& trace, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const Access a = trace.next();
    access(a.address, a.is_write);
  }
}

void TwoLevelHierarchy::warmup(TraceSource& trace, std::uint64_t count) {
  run(trace, count);
  reset_stats();
}

void TwoLevelHierarchy::reset_stats() {
  stats_ = HierarchyStats{};
  l1_.reset_stats();
  l2_.reset_stats();
}

// --- SplitL1Hierarchy --------------------------------------------------------

SplitL1Hierarchy::SplitL1Hierarchy(SetAssociativeCache l1i,
                                   SetAssociativeCache l1d,
                                   SetAssociativeCache l2)
    : l1i_(std::move(l1i)), l1d_(std::move(l1d)), l2_(std::move(l2)) {
  for (const auto* l1 : {&l1i_, &l1d_}) {
    NC_REQUIRE(l2_.block_bytes() >= l1->block_bytes(),
               "L2 block must be >= L1 block");
    NC_REQUIRE(l2_.block_bytes() % l1->block_bytes() == 0,
               "L2 block must be a multiple of L1 block");
  }
  NC_REQUIRE(l2_.size_bytes() >= l1i_.size_bytes() + l1d_.size_bytes(),
             "L2 must cover both L1s");
}

void SplitL1Hierarchy::access_l2(std::uint64_t address, bool is_write) {
  ++stats_.l2_accesses;
  const auto r = l2_.access(address, is_write);
  if (r.writeback) ++stats_.memory_accesses;
  if (!r.hit) {
    ++stats_.l2_misses;
    ++stats_.memory_accesses;
  }
}

void SplitL1Hierarchy::access_instruction(std::uint64_t pc) {
  ++stats_.instruction_refs;
  const auto r = l1i_.access(pc, /*is_write=*/false);
  if (r.hit) return;
  ++stats_.l1i_misses;
  access_l2(pc, /*is_write=*/false);
}

void SplitL1Hierarchy::access_data(std::uint64_t address, bool is_write) {
  ++stats_.data_refs;
  const auto r = l1d_.access(address, is_write);
  if (r.writeback) {
    access_l2(r.evicted_block * l1d_.block_bytes(), /*is_write=*/true);
  }
  if (r.hit) return;
  ++stats_.l1d_misses;
  access_l2(address, /*is_write=*/false);
}

void SplitL1Hierarchy::reset_stats() {
  stats_ = Stats{};
  l1i_.reset_stats();
  l1d_.reset_stats();
  l2_.reset_stats();
}

}  // namespace nanocache::sim
