// The parallel engine's contracts: index coverage, index-ordered maps,
// typed-error propagation, degenerate ranges, and nested-call rejection.
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/metrics.h"

namespace nanocache {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> hits(1000);
    par::parallel_for(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  bool called = false;
  par::parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadRunsInCallingThread) {
  const auto caller = std::this_thread::get_id();
  par::parallel_for(
      100, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      /*threads=*/1);
}

TEST(ParallelFor, PropagatesTypedErrorWithCategory) {
  const auto run = [] {
    par::parallel_for(
        500,
        [](std::size_t i) {
          if (i == 137) {
            throw Error(ErrorCategory::kNumericDomain, "poisoned index");
          }
        },
        /*threads=*/4);
  };
  try {
    run();
    FAIL() << "expected Error to cross the pool";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kNumericDomain);
    EXPECT_NE(std::string(e.what()).find("poisoned index"), std::string::npos);
  }
}

TEST(ParallelFor, LowestFailingIndexWinsWhenChunksRace) {
  // Two failing indices; the reported error must be the lower one whenever
  // both ran.  Index 0 is always claimed first, so it must win.
  try {
    par::parallel_for(
        64,
        [](std::size_t i) {
          if (i == 0) throw Error(ErrorCategory::kConfig, "first");
          if (i == 63) throw Error(ErrorCategory::kInternal, "last");
        },
        /*threads=*/4);
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kConfig);
  }
}

TEST(ParallelFor, NestedCallsCollapseToSerialInline) {
  std::atomic<int> nested_parallel{0};
  std::atomic<int> total{0};
  par::parallel_for(
      8,
      [&](std::size_t) {
        EXPECT_TRUE(par::in_parallel_region());
        const auto worker = std::this_thread::get_id();
        par::parallel_for(
            16,
            [&](std::size_t) {
              total.fetch_add(1);
              // Inner work must stay on the worker that issued it.
              if (std::this_thread::get_id() != worker) {
                nested_parallel.fetch_add(1);
              }
            },
            /*threads=*/8);
      },
      /*threads=*/4);
  EXPECT_EQ(nested_parallel.load(), 0);
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(SerialRegionGuard, ForcesInlineExecution) {
  EXPECT_FALSE(par::in_parallel_region());
  {
    par::SerialRegionGuard serial;
    EXPECT_TRUE(par::in_parallel_region());
    const auto caller = std::this_thread::get_id();
    par::parallel_for(100, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
  }
  EXPECT_FALSE(par::in_parallel_region());
}

TEST(ParallelMap, ResultsInIndexOrder) {
  for (int threads : {1, 3, 8}) {
    const auto out = par::parallel_map(
        257, [](std::size_t i) { return i * i; }, threads);
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(Defaults, SetDefaultThreadsRoundTrips) {
  par::set_default_threads(3);
  EXPECT_EQ(par::default_threads(), 3);
  par::set_default_threads(0);  // restore
  EXPECT_GE(par::default_threads(), 1);
  EXPECT_THROW(par::set_default_threads(-1), Error);
}

TEST(Defaults, HardwareThreadsIsPositive) {
  EXPECT_GE(par::hardware_threads(), 1);
}

TEST(ParallelFor, PropagatedErrorIsThreadCountInvariant) {
  // Several failing indices scattered through the range: whatever the
  // thread count, the error that surfaces must be the one the serial loop
  // would hit first — the batch byte-identity contract depends on it.
  const auto body = [](std::size_t i) {
    if (i == 5 || i == 100 || i == 900) {
      throw Error(ErrorCategory::kNumericDomain,
                  "boom at " + std::to_string(i));
    }
  };
  for (const int threads : {1, 2, 8}) {
    try {
      par::parallel_for(1000, body, threads);
      FAIL() << "expected an error";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "[numeric-domain] boom at 5")
          << "threads=" << threads;
    }
  }
}

// --- Serial-region accounting and fold determinism ------------------------

std::uint64_t serial_regions() {
  return metrics::Registry::instance()
      .counter("parallel.serial_regions")
      .value();
}

TEST(ParallelFor, ForkedRegionIsNotCountedAsSerial) {
  const auto before = serial_regions();
  std::vector<std::atomic<int>> hits(64);
  par::parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
      /*threads=*/4);
  EXPECT_EQ(serial_regions(), before);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelMap, IndexOrderedFoldIsBitIdenticalAtAnyThreadCount) {
  // Per-index results folded in index order by a non-associative
  // floating-point sum: any reordering would show up in the low bits.
  // parallel_map writes slot i from task i, so the fold must be
  // bit-identical whether the region ran serially or forked.
  const auto run = [](int threads) {
    const auto terms = par::parallel_map(
        10'000,
        [](std::size_t i) { return std::sin(static_cast<double>(i)) * 1e-3; },
        threads);
    double sum = 0.0;
    for (const double t : terms) sum += t;
    return sum;
  };
  const double serial = run(1);
  for (const int threads : {4, 8}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(run(threads)),
              std::bit_cast<std::uint64_t>(serial))
        << "threads=" << threads;
  }
}

/// setenv/unsetenv wrapper restoring NANOCACHE_THREADS afterwards.
class EnvThreadsGuard {
 public:
  EnvThreadsGuard() {
    const char* prev = std::getenv("NANOCACHE_THREADS");
    if (prev != nullptr) saved_ = prev;
  }
  ~EnvThreadsGuard() {
    if (saved_.has_value()) {
      ::setenv("NANOCACHE_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("NANOCACHE_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(Defaults, EnvThreadsStrictParsing) {
  EnvThreadsGuard guard;
  par::set_default_threads(0);  // make the env variable the source

  // An empty variable counts as unset (shell convention), so it is absent
  // from this list.
  for (const char* bad : {"abc", "0", "-4", "2000", "8 ", "8x"}) {
    ::setenv("NANOCACHE_THREADS", bad, 1);
    try {
      par::default_threads();
      FAIL() << "expected Error(kConfig) for NANOCACHE_THREADS='" << bad
             << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kConfig) << bad;
    }
  }

  ::setenv("NANOCACHE_THREADS", "8", 1);
  EXPECT_EQ(par::default_threads(), 8);
  // The upper bound of the accepted range is valid but capped to the
  // pool's worker limit, never an error.
  ::setenv("NANOCACHE_THREADS", "1024", 1);
  EXPECT_GE(par::default_threads(), 1);
  EXPECT_LE(par::default_threads(), 1024);

  ::unsetenv("NANOCACHE_THREADS");
  EXPECT_GE(par::default_threads(), 1);
}

}  // namespace
}  // namespace nanocache
