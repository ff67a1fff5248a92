// The observability layer's contracts: counter/gauge/histogram semantics,
// registry reference stability across reset(), deterministic snapshots,
// span nesting (parent/depth/phase aggregation), and thread safety under
// the fork-join pool the metrics are designed to sit beneath.
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/parallel.h"
#include "util/trace_span.h"

namespace nanocache::metrics {
namespace {

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddAndHighWatermark) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
  g.record_max(10);
  EXPECT_EQ(g.value(), 10);
  g.record_max(2);  // lower than the watermark: no effect
  EXPECT_EQ(g.value(), 10);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  // Bucket b counts v <= 2^b; the first bucket also absorbs 0.
  EXPECT_EQ(Histogram::bucket_for(0), 0u);
  EXPECT_EQ(Histogram::bucket_for(1), 0u);
  EXPECT_EQ(Histogram::bucket_for(2), 1u);
  EXPECT_EQ(Histogram::bucket_for(3), 2u);
  EXPECT_EQ(Histogram::bucket_for(4), 2u);
  EXPECT_EQ(Histogram::bucket_for(5), 3u);
  EXPECT_EQ(Histogram::bucket_for(1024), 10u);
  EXPECT_EQ(Histogram::bucket_for(1025), 11u);
  // Everything past the last finite bound lands in the overflow bucket.
  EXPECT_EQ(Histogram::bucket_for(UINT64_MAX), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_for(1ull << 40), Histogram::kBuckets - 1);
}

TEST(Histogram, ObserveAccumulatesCountSumAndBuckets) {
  Histogram h;
  h.observe(1);
  h.observe(3);
  h.observe(3);
  h.observe(1ull << 40);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 7u + (1ull << 40));
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Registry, ResolvesSameReferenceForSameName) {
  auto& registry = Registry::instance();
  Counter& a = registry.counter("test.registry.same_name");
  Counter& b = registry.counter("test.registry.same_name");
  EXPECT_EQ(&a, &b);
}

TEST(Registry, ResetZeroesInPlaceSoCachedReferencesSurvive) {
  auto& registry = Registry::instance();
  Counter& c = registry.counter("test.registry.reset_survivor");
  c.add(5);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(3);  // the cached reference still feeds the registered metric
  EXPECT_EQ(registry.counter("test.registry.reset_survivor").value(), 3u);
}

TEST(Registry, SnapshotKeysAreSorted) {
  auto& registry = Registry::instance();
  registry.counter("test.snapshot.zebra").add(1);
  registry.counter("test.snapshot.alpha").add(1);
  const auto snap = registry.snapshot();
  std::vector<std::string> keys;
  for (const auto& [name, value] : snap.counters) keys.push_back(name);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(snap.counters.count("test.snapshot.alpha"), 1u);
  EXPECT_EQ(snap.counters.count("test.snapshot.zebra"), 1u);
}

TEST(Registry, CountersAreExactUnderParallelHammering) {
  auto& registry = Registry::instance();
  Counter& c = registry.counter("test.parallel.hammer");
  c.reset();
  Histogram& h = registry.histogram("test.parallel.hammer_hist");
  h.reset();
  par::parallel_for(
      10000,
      [&](std::size_t i) {
        c.add(1);
        h.observe(i % 64);
      },
      /*threads=*/8);
  EXPECT_EQ(c.value(), 10000u);
  EXPECT_EQ(h.count(), 10000u);
}

TEST(TraceSpan, NestingGivesParentAndDepth) {
  clear_spans();
  {
    TraceSpan outer("test.span.outer");
    EXPECT_EQ(TraceSpan::current(), &outer);
    EXPECT_EQ(outer.depth(), 0u);
    {
      TraceSpan inner("test.span.inner");
      EXPECT_EQ(TraceSpan::current(), &inner);
      EXPECT_EQ(inner.depth(), 1u);
    }
    EXPECT_EQ(TraceSpan::current(), &outer);
  }
  EXPECT_EQ(TraceSpan::current(), nullptr);

  const auto spans = recent_spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner finishes first: the ring records spans in completion order.
  EXPECT_EQ(spans[0].name, "test.span.inner");
  EXPECT_EQ(spans[0].parent, "test.span.outer");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "test.span.outer");
  EXPECT_EQ(spans[1].parent, "");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_GE(spans[1].duration_ns, spans[0].duration_ns);
}

TEST(TraceSpan, AggregatesPhasesByName) {
  auto& registry = Registry::instance();
  registry.reset();
  { TraceSpan s("test.phase.repeat"); }
  { TraceSpan s("test.phase.repeat"); }
  { TraceSpan s("test.phase.other"); }
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.phases.count("test.phase.repeat"), 1u);
  EXPECT_EQ(snap.phases.at("test.phase.repeat").count, 2u);
  EXPECT_EQ(snap.phases.at("test.phase.other").count, 1u);
  EXPECT_GE(snap.phases.at("test.phase.repeat").total_ns,
            snap.phases.at("test.phase.repeat").max_ns);
}

TEST(TraceSpan, PoolWorkersRootTheirOwnSpans) {
  clear_spans();
  {
    TraceSpan caller("test.span.pool_caller");
    par::parallel_for(
        64, [](std::size_t) { TraceSpan s("test.span.pool_work"); },
        /*threads=*/4);
  }
  std::size_t workers = 0;
  std::set<std::uint64_t> threads;
  for (const auto& s : recent_spans()) {
    if (s.name != "test.span.pool_work") continue;
    ++workers;
    threads.insert(s.thread_id);
    // A pool worker has no enclosing span: its stack is thread-local, so
    // the span roots at depth 0 regardless of the caller's nesting.  The
    // calling thread also executes indices; there the caller span IS the
    // parent.  Either way the span's NAME — the phase-aggregation key —
    // is identical, which is what keeps metrics stable across thread
    // counts.
    if (s.parent.empty()) {
      EXPECT_EQ(s.depth, 0u);
    } else {
      EXPECT_EQ(s.parent, "test.span.pool_caller");
      EXPECT_EQ(s.depth, 1u);
    }
  }
  EXPECT_EQ(workers, 64u);
  EXPECT_GE(threads.size(), 1u);
}

TEST(TraceSpan, RingBufferIsBounded) {
  clear_spans();
  const std::size_t capacity = span_buffer_capacity();
  for (std::size_t i = 0; i < capacity + 10; ++i) {
    TraceSpan s("test.span.flood");
  }
  EXPECT_EQ(recent_spans().size(), capacity);
}

}  // namespace
}  // namespace nanocache::metrics
