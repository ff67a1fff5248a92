// Differential tests for the dominance-pruned search engine: byte-identical
// results (values, assignments, infeasibility diagnostics) against the
// exhaustive reference at every thread count, plus the >= 5x search-effort
// reduction the pruning exists for.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cachemodel/fitted_cache.h"
#include "opt/pruned.h"
#include "opt/schemes.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace nanocache::opt {
namespace {

using cachemodel::CacheModel;
using cachemodel::ComponentKind;
using cachemodel::kAllComponents;

const CacheModel& cache16k() {
  static auto model = [] {
    tech::DeviceModel dev(tech::bptm65());
    return std::make_unique<CacheModel>(
        cachemodel::l1_organization(16 * 1024, dev),
        tech::DeviceModel(dev.params()));
  }();
  return *model;
}

/// A delay ladder spanning clearly infeasible through unconstrained.
std::vector<double> constraint_ladder() {
  std::vector<double> targets;
  for (double ps = 600.0; ps <= 2600.0; ps += 100.0) {
    targets.push_back(ps * 1e-12);
  }
  return targets;
}

void expect_identical(const OptOutcome<SchemeResult>& pruned,
                      const OptOutcome<SchemeResult>& exhaustive,
                      const std::string& context) {
  ASSERT_EQ(pruned.has_value(), exhaustive.has_value()) << context;
  if (!pruned.has_value()) {
    // Infeasibility diagnostics must match byte for byte: same constraint,
    // same fastest-achievable bound, same description.
    EXPECT_EQ(pruned.why().describe(), exhaustive.why().describe()) << context;
    return;
  }
  // Bitwise-equal doubles (EXPECT_EQ, not NEAR) and identical knobs: the
  // pruned engine must reproduce the exhaustive argmin exactly, including
  // grid-index tie-breaks and floating-point association.
  EXPECT_EQ(pruned->leakage_w, exhaustive->leakage_w) << context;
  EXPECT_EQ(pruned->access_time_s, exhaustive->access_time_s) << context;
  EXPECT_EQ(pruned->dynamic_energy_j, exhaustive->dynamic_energy_j) << context;
  EXPECT_TRUE(pruned->assignment == exhaustive->assignment) << context;
}

void run_differential(const ComponentEvaluator& eval, const KnobGrid& grid,
                      const std::string& label) {
  for (const Scheme scheme :
       {Scheme::kPerComponent, Scheme::kArrayPeriphery, Scheme::kUniform}) {
    for (const double target : constraint_ladder()) {
      const auto pruned = optimize_single_cache(eval, grid, scheme, target,
                                                SearchMode::kPruned);
      const auto exhaustive = optimize_single_cache(
          eval, grid, scheme, target, SearchMode::kExhaustive);
      expect_identical(pruned, exhaustive,
                       label + " scheme=" + scheme_name(scheme) +
                           " target=" + std::to_string(target));
    }
  }
}

TEST(PrunedSearch, MatchesExhaustiveOnStructuralModel) {
  run_differential(structural_evaluator(cache16k()),
                   KnobGrid::paper_default(), "structural/default");
}

TEST(PrunedSearch, MatchesExhaustiveOnFittedModel) {
  const auto fits = cachemodel::FittedCacheModel::fit(cache16k());
  run_differential(fitted_evaluator(fits, cache16k()),
                   KnobGrid::paper_default(), "fitted/default");
}

TEST(PrunedSearch, MatchesExhaustiveOnFineGrid) {
  run_differential(structural_evaluator(cache16k()), KnobGrid::fine(),
                   "structural/fine");
}

TEST(PrunedSearch, MatchesExhaustiveAtEveryThreadCount) {
  const auto eval = structural_evaluator(cache16k());
  const int before = par::default_threads();
  for (const int threads : {1, 8}) {
    par::set_default_threads(threads);
    run_differential(eval, KnobGrid::paper_default(),
                     "threads=" + std::to_string(threads));
  }
  par::set_default_threads(before);
}

TEST(PrunedSearch, CurveMatchesExhaustive) {
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  // The leakage-vs-delay curve: one optimization per ladder target, in
  // target order, infeasible targets dropped, in both search modes.
  const auto curve = [&](SearchMode mode) {
    std::vector<std::pair<double, SchemeResult>> points;
    for (const double target : constraint_ladder()) {
      auto r = optimize_single_cache(eval, grid, Scheme::kPerComponent,
                                     target, mode);
      if (r) points.emplace_back(target, *r);
    }
    return points;
  };
  const auto pruned = curve(SearchMode::kPruned);
  const auto exhaustive = curve(SearchMode::kExhaustive);
  ASSERT_EQ(pruned.size(), exhaustive.size());
  for (std::size_t i = 0; i < pruned.size(); ++i) {
    EXPECT_EQ(pruned[i].first, exhaustive[i].first);
    expect_identical(OptOutcome<SchemeResult>(pruned[i].second),
                     OptOutcome<SchemeResult>(exhaustive[i].second),
                     "curve point " + std::to_string(i));
  }
}

TEST(PrunedSearch, SchemeOneEvaluatesAtLeastFiveTimesFewerCombos) {
  const auto eval = structural_evaluator(cache16k());
  const auto grid = KnobGrid::paper_default();
  auto& evaluated =
      metrics::Registry::instance().counter("opt.combos_evaluated");
  const auto measure = [&](SearchMode mode) {
    const std::uint64_t before = evaluated.value();
    for (const double target : constraint_ladder()) {
      (void)optimize_single_cache(eval, grid, Scheme::kPerComponent, target,
                                  mode);
    }
    return evaluated.value() - before;
  };
  const std::uint64_t exhaustive = measure(SearchMode::kExhaustive);
  const std::uint64_t pruned = measure(SearchMode::kPruned);
  ASSERT_GT(pruned, 0u);
  EXPECT_GE(exhaustive, 5 * pruned)
      << "exhaustive=" << exhaustive << " pruned=" << pruned;
}

TEST(PrunedSearch, SkippedCounterTracksAvoidedWork) {
  const auto eval = structural_evaluator(cache16k());
  auto& skipped = metrics::Registry::instance().counter("opt.combos_skipped");
  const std::uint64_t before = skipped.value();
  (void)optimize_single_cache(eval, KnobGrid::paper_default(),
                              Scheme::kPerComponent, 1.4e-9,
                              SearchMode::kPruned);
  EXPECT_GT(skipped.value(), before);
}

}  // namespace
}  // namespace nanocache::opt
