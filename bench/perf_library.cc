// PERF — google-benchmark microbenchmarks of the library itself: model
// evaluation, fitting, simulation throughput, and optimizer latency.
//
// Also a timing harness with two gates:
//   perf_library --emit-json [path]
// runs a 100-request batched-service workload at 1/2/4/8 threads through
// the public nanocache::api facade and writes wall time and throughput per
// thread count as JSON (default: BENCH_parallel_sweep.json), gated on the
// best multi-thread run reaching >= 0.9x single-thread throughput on a
// multicore host; and writes BENCH_surrogate.json: the surrogate serving
// tier (precompute + distinct in-ladder optimizes served surrogate-warm vs
// exact, both on one thread), gated on a >= 10x throughput ratio and every
// answer staying within its proven bound.  Byte-identity across thread
// counts, search modes, disk-cache replays and served connections is the
// tier-1 suite's job (ParallelDeterminism, PrunedSearch, ApiDiskCache,
// BatchGolden).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "api/metrics_json.h"
#include "api/surrogate_precompute.h"
#include "util/metrics.h"
#include "cachemodel/fitted_cache.h"
#include "core/explorer.h"
#include "nanocache/api.h"
#include "opt/continuous.h"
#include "opt/schemes.h"
#include "opt/sensitivity.h"
#include "sim/generators.h"
#include "sim/hierarchy.h"
#include "util/parallel.h"

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

// --- parallel-sweep timing harness ------------------------------------------

/// Fresh facade service (its memo cache starts empty, so every timed run
/// does the same work).
std::shared_ptr<api::Service> fresh_service() {
  auto service = api::Service::create({});
  if (!service) {
    std::cerr << "service: " << service.error().message << "\n";
    std::exit(1);
  }
  return service.value();
}

/// The batch workload: 100 requests mixing duplicated evaluations (request-
/// level dedup), per-target optimizations, and a scheme sweep over the SAME
/// delay targets (sub-evaluation memo hits: the sweep's cells land on the
/// optimize requests' "opt|" entries), plus two overlapping tuple-menu
/// queries (shared "menu|" entries).
std::vector<api::Request> batch_workload() {
  std::vector<api::Request> requests;
  int next_id = 0;
  const auto push = [&](api::Request r) {
    r.id = "r" + std::to_string(next_id++);
    requests.push_back(std::move(r));
  };

  // 70 evals: the paper grid twice (every second one is a pure duplicate).
  for (const double vth : {0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}) {
    for (const double tox : {10.0, 11.0, 12.0, 13.0, 14.0}) {
      for (int dup = 0; dup < 2; ++dup) {
        api::Request r;
        r.kind = api::RequestKind::kEval;
        r.eval.knobs = api::Knobs{vth, tox};
        push(std::move(r));
      }
    }
  }

  // 27 single-cache optimizations: 9 delay targets x 3 schemes...
  std::vector<double> targets_ps;
  for (int i = 0; i < 9; ++i) targets_ps.push_back(1000.0 + 100.0 * i);
  for (const double ps : targets_ps) {
    for (const auto scheme :
         {api::SchemeId::kI, api::SchemeId::kII, api::SchemeId::kIII}) {
      api::Request r;
      r.kind = api::RequestKind::kOptimize;
      r.optimize.scheme = scheme;
      r.optimize.delay.target_ps = ps;
      push(std::move(r));
    }
  }
  // ...plus one scheme sweep over the same targets (27 memo hits).
  {
    api::Request r;
    r.kind = api::RequestKind::kSweep;
    r.sweep.kind = api::SweepKind::kSchemes;
    r.sweep.delay.targets_ps = targets_ps;
    push(std::move(r));
  }

  // 2 tuple-menu queries sharing the 1700 pS design ("menu|" memo hit).
  {
    api::Request r;
    r.kind = api::RequestKind::kTupleMenu;
    r.tuple_menu.delay.targets_ps = {1700.0};
    push(std::move(r));
    api::Request r2;
    r2.kind = api::RequestKind::kTupleMenu;
    r2.tuple_menu.delay.targets_ps = {1700.0, 1900.0};
    push(std::move(r2));
  }
  return requests;
}

int emit_parallel_sweep_json(const std::string& path) {
  // Batched-service workload: throughput per thread count, and the t=1
  // dedup/memoization accounting (the hit/miss split can shift under
  // concurrency; responses cannot).
  const auto workload = batch_workload();
  fresh_service()->run_batch(workload);  // untimed warmup (allocator arenas)
  const int hw = par::hardware_threads();
  struct BatchRun {
    int threads;
    double wall_s;
  };
  std::vector<BatchRun> batch_runs;
  api::BatchStats batch_stats;
  for (int threads : {1, 2, 4, 8}) {
    par::set_default_threads(threads);
    const auto service = fresh_service();
    const auto start = std::chrono::steady_clock::now();
    const auto result = service->run_batch(workload);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (threads == 1) batch_stats = result.stats;
    batch_runs.push_back({threads, wall});
  }
  par::set_default_threads(0);

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  // Throughput gate: on a multicore host, the best measured multi-thread
  // batch run must reach at least 0.9x single-thread throughput — the
  // regression this harness exists to catch is parallel mode being SLOWER
  // than serial.  Single-core hosts (and oversubscribed rows) can't
  // measure scaling, so the gate passes vacuously there.
  double single_wall = 0.0;
  double best_multi_wall = std::numeric_limits<double>::infinity();
  for (const auto& r : batch_runs) {
    if (r.threads == 1) single_wall = r.wall_s;
    if (r.threads > 1 && r.threads <= hw) {
      best_multi_wall = std::min(best_multi_wall, r.wall_s);
    }
  }
  const bool gate_applicable =
      hw > 1 && single_wall > 0.0 &&
      best_multi_wall < std::numeric_limits<double>::infinity();
  const double multi_speedup =
      gate_applicable ? single_wall / best_multi_wall : 0.0;
  const bool perf_ok = !gate_applicable || multi_speedup >= 0.9;

  out << "{\n"
      << "  \"hardware_threads\": " << hw << ",\n"
      << "  \"multi_thread_speedup\": " << multi_speedup << ",\n"
      << "  \"perf_gate_applicable\": "
      << (gate_applicable ? "true" : "false") << ",\n"
      << "  \"perf_gate_ok\": " << (perf_ok ? "true" : "false") << ",\n"
      << "  \"batch\": {\n"
      << "    \"requests\": " << batch_stats.requests << ",\n"
      << "    \"unique_requests\": " << batch_stats.unique_requests << ",\n"
      << "    \"request_hits\": " << batch_stats.request_hits << ",\n"
      << "    \"memo_hits\": " << batch_stats.memo_hits << ",\n"
      << "    \"memo_misses\": " << batch_stats.memo_misses << ",\n"
      << "    \"hit_rate\": " << batch_stats.hit_rate() << ",\n"
      << "    \"runs\": [\n";
  for (std::size_t i = 0; i < batch_runs.size(); ++i) {
    const auto& r = batch_runs[i];
    out << "      {\"threads\": " << r.threads
        << ", \"hardware_threads\": " << hw
        << ", \"wall_s\": " << r.wall_s
        << ", \"requests_per_s\": "
        << (r.wall_s > 0.0
                ? static_cast<double>(batch_stats.requests) / r.wall_s
                : 0.0)
        << (r.threads > hw ? ", \"unmeasured\": true" : "")
        << "}" << (i + 1 < batch_runs.size() ? "," : "") << "\n";
  }
  out << "    ]\n  },\n"
      << "  \"metrics\": " << api::current_metrics_json(&batch_stats) << "\n"
      << "}\n";
  std::cout << "wrote " << path << " (memo_hit_rate=" << batch_stats.hit_rate()
            << ", multi_thread_speedup=" << multi_speedup
            << ", perf_gate=" << (perf_ok ? "ok" : "FAIL") << ")\n";
  return perf_ok ? 0 : 1;
}

/// The surrogate serving tier: precompute tables for the default
/// configuration, then serve the kind of request the tier covers —
/// distinct in-ladder optimizes (L1 and L2), so the exact baseline cannot
/// memo-hit across requests — through a surrogate-backed service and
/// through the exact engine, both passes on one thread so the ratio
/// compares the two engines and not the host's core count.  Exit 0
/// requires the warm surrogate pass to be >= 10x the exact throughput,
/// every surrogate answer to stay within its proven bound, and the
/// api.surrogate.* metrics to be live.
int emit_surrogate_json(const std::string& path) {
  const auto table_dir =
      std::filesystem::temp_directory_path() / "nanocache_bench_surrogate";
  std::filesystem::remove_all(table_dir);
  api::PrecomputeOptions options;
  options.stamp = "bench";
  const auto precompute_start = std::chrono::steady_clock::now();
  const auto summary = [&] {
    const auto service = fresh_service();
    return api::precompute_surrogate(*service, table_dir.string(), options);
  }();
  const double precompute_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  precompute_start)
                                  .count();

  // 200 distinct optimize targets inside the tabulated ladders, alternating
  // the default 16KB L1 and the 1MB L2.
  std::vector<api::Request> workload;
  for (int i = 0; i < 200; ++i) {
    api::Request r;
    r.kind = api::RequestKind::kOptimize;
    r.optimize.scheme =
        i % 3 == 0 ? api::SchemeId::kI
                   : (i % 3 == 1 ? api::SchemeId::kII : api::SchemeId::kIII);
    if (i % 2 == 1) {
      // The wire default size stays 16KB whatever the level, so the 1MB L2
      // the tables cover has to be spelled out.
      r.optimize.target.level = api::Level::kL2;
      r.optimize.target.size_bytes = 1 << 20;
      r.optimize.delay.target_ps = 3460.0 + 16.0 * i;
    } else {
      r.optimize.delay.target_ps = 1360.0 + 2.6 * i;
    }
    r.id = "o" + std::to_string(i);
    workload.push_back(std::move(r));
  }

  const auto timed_batch = [&](const std::shared_ptr<api::Service>& service,
                               double* wall_s) {
    const auto start = std::chrono::steady_clock::now();
    auto batch = service->run_batch(workload);
    *wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return batch;
  };

  par::set_default_threads(1);
  double exact_s = 0.0, cold_s = 0.0, warm_s = 0.0;
  const auto exact = timed_batch(fresh_service(), &exact_s);
  api::ServiceConfig sur_config;
  sur_config.surrogate_dir = table_dir.string();
  auto sur_service = api::Service::create(sur_config);
  if (!sur_service) {
    std::cerr << "service: " << sur_service.error().message << "\n";
    return 1;
  }
  (void)timed_batch(sur_service.value(), &cold_s);
  const auto warm = timed_batch(sur_service.value(), &warm_s);
  par::set_default_threads(0);

  // Differential gate: every surrogate answer is feasible for its target
  // and over-estimates the exact optimum by at most its proven bound.
  std::size_t surrogate_served = 0;
  bool bounds_ok = true;
  double worst_leakage_err = 0.0, worst_leakage_bound = 0.0;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const auto& s = warm.responses[i];
    const auto& x = exact.responses[i];
    if (!s.ok || !x.ok) {
      bounds_ok = false;
      continue;
    }
    if (s.served_by != api::ServedBy::kSurrogate) continue;
    ++surrogate_served;
    const double err =
        s.optimize.result.leakage_mw - x.optimize.result.leakage_mw;
    bounds_ok = bounds_ok && err >= -1e-12 &&
                err <= s.max_error.leakage_mw + 1e-12 &&
                s.optimize.result.access_time_ps <=
                    workload[i].optimize.delay.target_ps;
    if (std::abs(err) > worst_leakage_err) {
      worst_leakage_err = std::abs(err);
      worst_leakage_bound = s.max_error.leakage_mw;
    }
  }

  auto& registry = metrics::Registry::instance();
  const std::uint64_t hits = registry.counter("api.surrogate.hits").value();
  const std::uint64_t tables =
      registry.counter("api.surrogate.tables").value();
  const bool metrics_ok = hits >= surrogate_served && tables > 0;

  const double speedup = warm_s > 0.0 ? exact_s / warm_s : 0.0;
  const double covered = static_cast<double>(surrogate_served) /
                         static_cast<double>(workload.size());
  const bool ok =
      speedup >= 10.0 && bounds_ok && metrics_ok && covered >= 0.9;

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  const auto rps = [&](double wall_s) {
    return wall_s > 0.0 ? static_cast<double>(workload.size()) / wall_s : 0.0;
  };
  out << "{\n  \"surrogate\": {\n"
      << "    \"threads\": 1,\n"
      << "    \"optimize_tables\": " << summary.optimize_tables << ",\n"
      << "    \"precompute_s\": " << precompute_s << ",\n"
      << "    \"precompute_exact_evals\": " << summary.exact_evals << ",\n"
      << "    \"precompute_exact_optimizes\": " << summary.exact_optimizes
      << ",\n"
      << "    \"requests\": " << workload.size() << ",\n"
      << "    \"served_by_surrogate\": " << surrogate_served << ",\n"
      << "    \"coverage\": " << covered << ",\n"
      << "    \"exact_wall_s\": " << exact_s << ",\n"
      << "    \"exact_requests_per_s\": " << rps(exact_s) << ",\n"
      << "    \"surrogate_cold_wall_s\": " << cold_s << ",\n"
      << "    \"surrogate_warm_wall_s\": " << warm_s << ",\n"
      << "    \"surrogate_warm_requests_per_s\": " << rps(warm_s) << ",\n"
      << "    \"speedup_vs_exact\": " << speedup << ",\n"
      << "    \"worst_leakage_err_mw\": " << worst_leakage_err << ",\n"
      << "    \"worst_leakage_bound_mw\": " << worst_leakage_bound << ",\n"
      << "    \"errors_within_bounds\": " << (bounds_ok ? "true" : "false")
      << ",\n"
      << "    \"surrogate_metrics_live\": " << (metrics_ok ? "true" : "false")
      << "\n  }\n}\n";
  std::cout << "wrote " << path << " (speedup=" << speedup
            << ", coverage=" << covered
            << ", bounds_ok=" << (bounds_ok ? "true" : "false") << ")\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--emit-json") {
      const std::string path =
          i + 1 < argc ? argv[i + 1] : "BENCH_parallel_sweep.json";
      const int batch_rc = emit_parallel_sweep_json(path);
      const int surrogate_rc = emit_surrogate_json("BENCH_surrogate.json");
      return batch_rc != 0 ? batch_rc : surrogate_rc;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
