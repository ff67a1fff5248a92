// Randomized property tests across module boundaries: organization fuzz,
// random-assignment consistency, DP-vs-thinning quality, and three-way
// optimizer agreement (pruned search vs exhaustive search vs continuous).
#include <gtest/gtest.h>

#include <memory>

#include "cachemodel/fitted_cache.h"
#include "sim/hierarchy.h"
#include "util/error.h"
#include "energy/memory_system.h"
#include "opt/continuous.h"
#include "opt/schemes.h"
#include "opt/tuple_menu.h"
#include "util/rng.h"

namespace nanocache {
namespace {

using cachemodel::CacheModel;
using cachemodel::CacheOrganization;
using cachemodel::ComponentAssignment;

TEST(FuzzOrganization, RandomValidOrgsEvaluateSanely) {
  Rng rng(99);
  tech::DeviceModel dev(tech::bptm65());
  int built = 0;
  for (int trial = 0; trial < 200 && built < 40; ++trial) {
    CacheOrganization org;
    org.size_bytes = 1024ull << rng.below(13);            // 1K..4M
    org.block_bytes = 8u << rng.below(4);                 // 8..64
    org.associativity = 1u << rng.below(4);               // 1..8
    org.ndwl = 1u << rng.below(5);
    org.ndbl = 1u << rng.below(5);
    org.nspd = 1u << rng.below(3);
    org.data_bus_bits = 32u << rng.below(3);
    try {
      org.validate();
    } catch (const Error&) {
      continue;  // invalid draw; the point is valid ones never misbehave
    }
    ++built;
    CacheModel model(org, tech::DeviceModel(dev.params()));
    const auto fast = model.evaluate_uniform({0.2, 10.0});
    const auto slow = model.evaluate_uniform({0.5, 14.0});
    ASSERT_GT(fast.access_time_s, 0.0) << org.describe();
    ASSERT_LT(fast.access_time_s, slow.access_time_s) << org.describe();
    ASSERT_GT(fast.leakage_w, slow.leakage_w) << org.describe();
    ASSERT_GT(slow.leakage_w, 0.0) << org.describe();
  }
  EXPECT_GE(built, 20);  // the fuzz actually exercised real organizations
}

TEST(FuzzAssignment, RandomAssignmentsBracketedByCorners) {
  // Any assignment's delay/leakage lies between the all-fast and all-slow
  // corners (component-wise monotonicity lifted to the cache level).
  tech::DeviceModel dev(tech::bptm65());
  CacheModel model(cachemodel::l1_organization(16 * 1024, dev),
                   tech::DeviceModel(dev.params()));
  const auto fast = model.evaluate_uniform({0.2, 10.0});
  const auto slow = model.evaluate_uniform({0.5, 14.0});
  Rng rng(123);
  for (int trial = 0; trial < 60; ++trial) {
    ComponentAssignment a;
    for (auto kind : cachemodel::kAllComponents) {
      a.set(kind, {0.2 + 0.3 * rng.uniform(), 10.0 + 4.0 * rng.uniform()});
    }
    const auto m = model.evaluate(a);
    EXPECT_GE(m.access_time_s, fast.access_time_s * (1 - 1e-9)) << trial;
    EXPECT_LE(m.access_time_s, slow.access_time_s * (1 + 1e-9)) << trial;
    EXPECT_LE(m.leakage_w, fast.leakage_w * (1 + 1e-9)) << trial;
    EXPECT_GE(m.leakage_w, slow.leakage_w * (1 - 1e-9)) << trial;
  }
}

TEST(FuzzOptimizers, ThreeWayAgreementOnFittedObjective) {
  // The pruned and exhaustive searches and the continuous solver attack the
  // same fitted objective; their optima must nest correctly at random
  // targets.
  tech::DeviceModel dev(tech::bptm65());
  CacheModel model(cachemodel::l1_organization(16 * 1024, dev),
                   tech::DeviceModel(dev.params()));
  const auto fits = cachemodel::FittedCacheModel::fit(model);
  const auto eval = opt::fitted_evaluator(fits, model);
  const auto grid = opt::KnobGrid::paper_default();
  const auto range = dev.params().knobs;
  const double lo =
      opt::min_access_time(eval, grid, opt::Scheme::kArrayPeriphery);

  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const double target = lo * (1.05 + rng.uniform() * 0.9);
    const auto exact = opt::optimize_single_cache(
        eval, grid, opt::Scheme::kArrayPeriphery, target);
    const auto exhaustive = opt::optimize_single_cache(
        eval, grid, opt::Scheme::kArrayPeriphery, target,
        opt::SearchMode::kExhaustive);
    const auto cont = opt::optimize_continuous(
        fits, range, opt::Scheme::kArrayPeriphery, target);
    ASSERT_TRUE(exact && exhaustive && cont) << target;
    // continuous <= exact grid, and both grid searches find the same optimum.
    EXPECT_LE(cont->leakage_w, exact->leakage_w * (1 + 1e-6)) << target;
    EXPECT_EQ(exhaustive->leakage_w, exact->leakage_w) << target;
    EXPECT_EQ(exhaustive->assignment, exact->assignment) << target;
  }
}

TEST(FuzzTupleThinning, ThinnedFrontierCloseToUnthinnedSmallInstance) {
  // On a menu small enough to enumerate, the default (thinned) frontier
  // must match the best_at answers, which bypass frontier thinning.
  tech::DeviceModel dev(tech::bptm65());
  CacheModel l1(cachemodel::l1_organization(16 * 1024, dev),
                tech::DeviceModel(dev.params()));
  CacheModel l2(cachemodel::l2_organization(512 * 1024, dev),
                tech::DeviceModel(dev.params()));
  energy::MemorySystemModel system(l1, l2, {0.0318, 0.189});
  opt::KnobGrid tiny;
  tiny.vth_values = {0.25, 0.40};
  tiny.tox_values = {11.0, 13.0};
  const opt::TupleMenuSolver solver(system, tiny);
  const auto front = solver.frontier({2, 2}, 200);
  ASSERT_GT(front.size(), 3u);
  for (std::size_t i = 0; i < front.size(); i += front.size() / 4 + 1) {
    const auto best = solver.best_at({2, 2}, front[i].amat_s * (1 + 1e-9));
    ASSERT_TRUE(best.has_value());
    EXPECT_LE(best->energy_j, front[i].energy_j * (1 + 1e-6)) << i;
    EXPECT_GE(best->energy_j, front[i].energy_j * (1 - 0.02)) << i;
  }
}

TEST(FuzzTrace, HierarchyCountersAlwaysConsistent) {
  // Random traces: derived identities between counters must always hold.
  Rng rng(31);
  sim::TwoLevelHierarchy h(sim::SetAssociativeCache(4096, 32, 2),
                           sim::SetAssociativeCache(64 * 1024, 64, 8));
  for (int i = 0; i < 50000; ++i) {
    h.access(rng.below(1 << 22) & ~3ull, rng.uniform() < 0.3);
  }
  const auto& s = h.stats();
  EXPECT_LE(s.l1_misses, s.references);
  EXPECT_LE(s.l2_misses, s.l2_accesses);
  // Every demand L2 access is an L1 miss or an L1 writeback.
  EXPECT_EQ(s.l2_accesses, s.l1_misses + s.l1_writebacks);
  // Memory accesses: one per L2 miss plus one per L2 writeback.
  EXPECT_EQ(s.memory_accesses, s.l2_misses + s.l2_writebacks);
}

}  // namespace
}  // namespace nanocache
