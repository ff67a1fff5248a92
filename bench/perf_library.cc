// PERF — google-benchmark microbenchmarks of the library itself: model
// evaluation, fitting, simulation throughput, and optimizer latency.
//
// End-to-end timings (the study batch and the served workloads) come from
// perfbench/run.py.  How much search the optimizers do is a tier-1 check
// (BatchGolden, against tests/data/work_golden.txt), as is byte identity
// across thread counts, search modes, disk-cache replays and served
// connections (ParallelDeterminism, PrunedSearch, ApiDiskCache,
// BatchGolden).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "cachemodel/fitted_cache.h"
#include "core/explorer.h"
#include "opt/continuous.h"
#include "opt/schemes.h"
#include "opt/sensitivity.h"
#include "opt/tuple_menu.h"
#include "sim/generators.h"
#include "sim/hierarchy.h"
#include "tech/params.h"

using namespace nanocache;

namespace {

const cachemodel::CacheModel& shared_16k() {
  static core::Explorer explorer;
  return explorer.l1_model(16 * 1024);
}

void BM_CacheEvaluateUniform(benchmark::State& state) {
  const auto& m = shared_16k();
  tech::DeviceKnobs k{0.35, 12.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.evaluate_uniform(k));
    k.vth_v = k.vth_v == 0.35 ? 0.40 : 0.35;  // defeat caching
  }
}
BENCHMARK(BM_CacheEvaluateUniform);

void BM_ComponentEvaluate(benchmark::State& state) {
  const auto& m = shared_16k();
  const tech::DeviceKnobs k{0.30, 11.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.component(cachemodel::ComponentKind::kCellArray, k));
  }
}
BENCHMARK(BM_ComponentEvaluate);

void BM_FittedCacheFit(benchmark::State& state) {
  const auto& m = shared_16k();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cachemodel::FittedCacheModel::fit(m, /*vth_steps=*/7, /*tox_steps=*/5));
  }
}
BENCHMARK(BM_FittedCacheFit)->Unit(benchmark::kMillisecond);

void BM_SchemeOptimize(benchmark::State& state) {
  const auto& m = shared_16k();
  const auto eval = opt::structural_evaluator(m);
  const auto grid = opt::KnobGrid::paper_default();
  const auto scheme = static_cast<opt::Scheme>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::optimize_single_cache(eval, grid, scheme, 1.4e-9));
  }
}
BENCHMARK(BM_SchemeOptimize)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughput(benchmark::State& state) {
  sim::TwoLevelHierarchy hier(
      sim::SetAssociativeCache(16 * 1024, 32, 2),
      sim::SetAssociativeCache(1024 * 1024, 64, 8));
  sim::WorkingSetGenerator::Config cfg;
  cfg.footprint_bytes = 4ull << 20;
  sim::WorkingSetGenerator gen(cfg, 42);
  for (auto _ : state) {
    hier.run(gen, 10'000);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorThroughput);

void BM_TraceGeneration(benchmark::State& state) {
  sim::WorkingSetGenerator::Config cfg;
  cfg.footprint_bytes = 4ull << 20;
  sim::WorkingSetGenerator gen(cfg, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
}
BENCHMARK(BM_TraceGeneration);

void tuple_menu_best_at(benchmark::State& state, const opt::MenuSpec& spec,
                        double amat_target_s) {
  static core::Explorer explorer;
  const auto system = explorer.default_system();
  const opt::TupleMenuSolver solver(system, explorer.config().grid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.best_at(spec, amat_target_s));
  }
}

void BM_TupleMenuBestAt(benchmark::State& state) {
  tuple_menu_best_at(state, {2, 2}, 1.7e-9);
}
BENCHMARK(BM_TupleMenuBestAt)->Unit(benchmark::kMillisecond);

/// The seed-7 study's heaviest line: 3 Tox x 3 Vth at 2393.2 ps, where the
/// Pareto-DP of the menus the bounds keep dominates.
void BM_TupleMenuBestAt3x3(benchmark::State& state) {
  tuple_menu_best_at(state, {3, 3}, 2.3932e-9);
}
BENCHMARK(BM_TupleMenuBestAt3x3)->Unit(benchmark::kMillisecond);

void BM_ContinuousOptimizer(benchmark::State& state) {
  static const auto fits =
      cachemodel::FittedCacheModel::fit(shared_16k());
  const auto range = tech::bptm65().knobs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_continuous(
        fits, range, opt::Scheme::kPerComponent, 1.4e-9));
  }
}
BENCHMARK(BM_ContinuousOptimizer)->Unit(benchmark::kMillisecond);

void BM_SchemeFrontier(benchmark::State& state) {
  const auto eval = opt::structural_evaluator(shared_16k());
  const auto grid = opt::KnobGrid::paper_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::scheme_frontier(eval, grid, opt::Scheme::kPerComponent));
  }
}
BENCHMARK(BM_SchemeFrontier)->Unit(benchmark::kMillisecond);

void BM_SensitivityMap(benchmark::State& state) {
  const auto eval = opt::structural_evaluator(shared_16k());
  const auto grid = opt::KnobGrid::paper_default();
  const auto range = tech::bptm65().knobs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::sensitivity_map(eval, grid, range));
  }
}
BENCHMARK(BM_SensitivityMap)->Unit(benchmark::kMillisecond);

void BM_DecaySimulation(benchmark::State& state) {
  sim::SetAssociativeCache cache(16 * 1024, 32, 2);
  cache.enable_decay(static_cast<std::uint64_t>(state.range(0)));
  sim::WorkingSetGenerator::Config cfg;
  cfg.footprint_bytes = 4ull << 20;
  sim::WorkingSetGenerator gen(cfg, 42);
  for (auto _ : state) {
    for (int i = 0; i < 10'000; ++i) {
      const auto a = gen.next();
      benchmark::DoNotOptimize(cache.access(a.address, a.is_write));
    }
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_DecaySimulation)->Arg(0)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
