// PERF — google-benchmark microbenchmarks of the library itself: model
// evaluation, fitting, simulation throughput, and optimizer latency.
//
// Also the parallel-sweep timing harness:
//   perf_library --emit-json [path]
// runs the scheme-comparison and tuple-menu sweeps plus a 100-request
// batched-service workload at 1/2/4/8 threads through the public
// nanocache::api facade, checks the serialized results are byte-identical
// at every thread count, and writes wall time, speedup, batch throughput
// and memoization hit rate as JSON (default: BENCH_parallel_sweep.json).
// It also writes BENCH_pruned_search.json: pruned-vs-exhaustive combo
// accounting (byte-identity + reduction ratio) and a cold/warm disk-cache
// pass over the batch workload (persistent hit rate + byte-identity), and
// BENCH_serve.json: server-mode throughput (requests/s over a unix socket,
// cold service vs warm, single vs 8 concurrent clients), gated on every
// served stream being byte-identical to batch-mode output, and
// BENCH_design_space.json: the v3 design space (associativity x banks x
// node x power gating) swept pruned-vs-exhaustive with per-point combo
// accounting, gated on byte-identity at every point, and
// BENCH_surrogate.json: the surrogate serving tier (precompute +
// distinct in-ladder optimizes served surrogate-warm vs exact, both on
// one thread), gated on a >= 10x throughput ratio and every answer staying
// within its proven bound.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <thread>

#include "api/batch_io.h"
#include "api/metrics_json.h"
#include "api/surrogate_precompute.h"
#include "server/client.h"
#include "server/server.h"
#include "util/metrics.h"
#include "cachemodel/fitted_cache.h"
#include "core/explorer.h"
#include "core/report.h"
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

/// One timed sweep: returns wall seconds and a result fingerprint (the
/// rendered report, so "identical output" means byte-identical text).
struct SweepSample {
  double wall_s = 0.0;
  std::string fingerprint;
};

template <typename Fn>
SweepSample time_sweep(Fn&& render) {
  // Min of three runs: wall-clock minimum is the standard noise-resistant
  // estimator for a deterministic workload.
  SweepSample s;
  s.wall_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    s.fingerprint = render();
    s.wall_s = std::min(
        s.wall_s, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count());
  }
  return s;
}

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
  // Sweep requests served through the facade; fingerprints are the
  // serialized response bytes, so "identical" means byte-identical JSONL.
  api::Request schemes_request;
  schemes_request.kind = api::RequestKind::kSweep;
  schemes_request.sweep.kind = api::SweepKind::kSchemes;
  const auto render_schemes = [&] {
    return api::response_to_json(fresh_service()->serve(schemes_request));
  };
  api::Request tuple_request;
  tuple_request.kind = api::RequestKind::kTupleMenu;
  tuple_request.tuple_menu.include_frontier = true;
  const auto render_tuples = [&] {
    return api::response_to_json(fresh_service()->serve(tuple_request));
  };

  // Untimed warmup: first-run lazy initialization (allocator arenas) must
  // not inflate the threads=1 baseline.
  render_schemes();
  render_tuples();

  // Rows with more workers than the host has hardware threads cannot show
  // real parallel speedup (the extra workers just time-slice); they are
  // still run — oversubscription must not change bytes or crash — but
  // marked "unmeasured" so downstream tooling (and the CI perf gate) never
  // treats their wall time as a scaling measurement.
  const int hw = par::hardware_threads();
  struct Row {
    std::string name;
    int threads;
    SweepSample sample;
  };
  std::vector<Row> rows;
  bool deterministic = true;
  std::string baseline_schemes, baseline_tuples;
  for (int threads : {1, 2, 4, 8}) {
    par::set_default_threads(threads);
    const auto s = time_sweep(render_schemes);
    const auto t = time_sweep(render_tuples);
    if (threads == 1) {
      baseline_schemes = s.fingerprint;
      baseline_tuples = t.fingerprint;
    } else if (s.fingerprint != baseline_schemes ||
               t.fingerprint != baseline_tuples) {
      deterministic = false;
    }
    rows.push_back({"scheme_comparison", threads, s});
    rows.push_back({"tuple_menu", threads, t});
  }

  // Batched-service workload: throughput per thread count, byte-identity
  // across thread counts, and the t=1 dedup/memoization accounting (the
  // hit/miss split can shift under concurrency; responses cannot).
  const auto workload = batch_workload();
  struct BatchRun {
    int threads;
    double wall_s;
  };
  std::vector<BatchRun> batch_runs;
  api::BatchStats batch_stats;
  std::string batch_baseline;
  for (int threads : {1, 2, 4, 8}) {
    par::set_default_threads(threads);
    const auto service = fresh_service();
    const auto start = std::chrono::steady_clock::now();
    const auto result = service->run_batch(workload);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::string bytes;
    for (const auto& response : result.responses) {
      bytes += api::response_to_json(response);
      bytes += '\n';
    }
    if (threads == 1) {
      batch_baseline = bytes;
      batch_stats = result.stats;
    } else if (bytes != batch_baseline) {
      deterministic = false;
    }
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
      << "  \"deterministic_across_thread_counts\": "
      << (deterministic ? "true" : "false") << ",\n"
      << "  \"multi_thread_speedup\": " << multi_speedup << ",\n"
      << "  \"perf_gate_applicable\": "
      << (gate_applicable ? "true" : "false") << ",\n"
      << "  \"perf_gate_ok\": " << (perf_ok ? "true" : "false") << ",\n"
      << "  \"sweeps\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    double base = 0.0;
    for (const auto& b : rows) {
      if (b.name == r.name && b.threads == 1) base = b.sample.wall_s;
    }
    out << "    {\"name\": \"" << r.name << "\", \"threads\": " << r.threads
        << ", \"hardware_threads\": " << hw
        << ", \"wall_s\": " << r.sample.wall_s << ", \"speedup\": "
        << (r.sample.wall_s > 0.0 ? base / r.sample.wall_s : 0.0)
        << (r.threads > hw ? ", \"unmeasured\": true" : "") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
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
  const bool memoized = batch_stats.memo_hits > 0 && batch_stats.hit_rate() > 0;
  std::cout << "wrote " << path << " (deterministic="
            << (deterministic ? "true" : "false")
            << ", memo_hit_rate=" << batch_stats.hit_rate()
            << ", multi_thread_speedup=" << multi_speedup
            << ", perf_gate=" << (perf_ok ? "ok" : "FAIL") << ")\n";
  return deterministic && memoized && perf_ok ? 0 : 1;
}

/// Pruned-search + persistent-cache accounting, written next to the
/// parallel-sweep JSON.  Exit 0 requires byte-identical pruned/exhaustive
/// serializations, the >= 5x scheme-I combo reduction the differential
/// tests enforce, and a warm disk-cache pass that actually hits.
int emit_pruned_search_json(const std::string& path) {
  auto& registry = metrics::Registry::instance();
  auto& evaluated = registry.counter("opt.combos_evaluated");
  auto& skipped = registry.counter("opt.combos_skipped");

  api::Request schemes_request;
  schemes_request.kind = api::RequestKind::kSweep;
  schemes_request.sweep.kind = api::SweepKind::kSchemes;

  const auto run_mode = [&](bool exhaustive, std::uint64_t* combos,
                            std::uint64_t* skips) {
    api::ServiceConfig config;
    config.exhaustive_search = exhaustive;
    auto service = api::Service::create(config);
    if (!service) {
      std::cerr << "service: " << service.error().message << "\n";
      std::exit(1);
    }
    const std::uint64_t evaluated_before = evaluated.value();
    const std::uint64_t skipped_before = skipped.value();
    const std::string bytes =
        api::response_to_json(service.value()->serve(schemes_request));
    *combos = evaluated.value() - evaluated_before;
    *skips = skipped.value() - skipped_before;
    return bytes;
  };

  std::uint64_t pruned_combos = 0, pruned_skips = 0;
  std::uint64_t exhaustive_combos = 0, exhaustive_skips = 0;
  const std::string pruned_bytes = run_mode(false, &pruned_combos,
                                            &pruned_skips);
  const std::string exhaustive_bytes = run_mode(true, &exhaustive_combos,
                                                &exhaustive_skips);
  const bool search_identical = pruned_bytes == exhaustive_bytes;
  const double ratio = pruned_combos > 0
                           ? static_cast<double>(exhaustive_combos) /
                                 static_cast<double>(pruned_combos)
                           : 0.0;

  // Cold/warm persistent-cache pass: same workload, fresh service each
  // time, shared on-disk segment.  The warm run must hit for every unique
  // request and serve byte-identical responses.
  const std::string cache_dir = path + ".cache_tmp";
  std::filesystem::remove_all(cache_dir);
  const auto workload = batch_workload();
  const auto run_cached = [&] {
    api::ServiceConfig config;
    config.cache_dir = cache_dir;
    auto service = api::Service::create(config);
    if (!service) {
      std::cerr << "service: " << service.error().message << "\n";
      std::exit(1);
    }
    return service.value()->run_batch(workload);
  };
  const auto cold = run_cached();
  const auto warm = run_cached();
  bool cache_identical = cold.responses.size() == warm.responses.size();
  if (cache_identical) {
    for (std::size_t i = 0; i < cold.responses.size(); ++i) {
      if (api::response_to_json(cold.responses[i]) !=
          api::response_to_json(warm.responses[i])) {
        cache_identical = false;
        break;
      }
    }
  }
  std::filesystem::remove_all(cache_dir);
  const double warm_hit_rate =
      warm.stats.unique_requests > 0
          ? static_cast<double>(warm.stats.disk_hits) /
                static_cast<double>(warm.stats.unique_requests)
          : 0.0;

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"pruning\": {\n"
      << "    \"exhaustive_combos\": " << exhaustive_combos << ",\n"
      << "    \"pruned_combos\": " << pruned_combos << ",\n"
      << "    \"pruned_combos_skipped\": " << pruned_skips << ",\n"
      << "    \"reduction_ratio\": " << ratio << ",\n"
      << "    \"byte_identical\": " << (search_identical ? "true" : "false")
      << "\n"
      << "  },\n"
      << "  \"disk_cache\": {\n"
      << "    \"requests\": " << warm.stats.requests << ",\n"
      << "    \"unique_requests\": " << warm.stats.unique_requests << ",\n"
      << "    \"cold_disk_hits\": " << cold.stats.disk_hits << ",\n"
      << "    \"cold_disk_misses\": " << cold.stats.disk_misses << ",\n"
      << "    \"warm_disk_hits\": " << warm.stats.disk_hits << ",\n"
      << "    \"warm_disk_misses\": " << warm.stats.disk_misses << ",\n"
      << "    \"warm_hit_rate\": " << warm_hit_rate << ",\n"
      << "    \"byte_identical\": " << (cache_identical ? "true" : "false")
      << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "wrote " << path << " (reduction_ratio=" << ratio
            << ", warm_disk_hits=" << warm.stats.disk_hits << ")\n";
  const bool ok = search_identical && cache_identical && ratio >= 5.0 &&
                  warm.stats.disk_hits > 0;
  return ok ? 0 : 1;
}

/// The v3 design space swept pruned-vs-exhaustive: one optimize request
/// per sampled (associativity, banks, node, gating) point, served by a
/// pruned and an exhaustive service with per-point combo-counter deltas.
/// Exit 0 requires byte-identical responses at every point.
int emit_design_space_json(const std::string& path) {
  struct Point {
    int associativity;       // 0 = default organization
    std::uint32_t banks;     // 0 = default single bank
    int node_nm;             // 0 = default technology
    bool gated;
    double target_ps;
  };
  // Every v3 axis covered at least once: explicit associativities, a
  // banked point, two non-default nodes, fully associative (generous
  // target: FA tag broadcast is slow by design), and power gating.
  const std::vector<Point> points = {
      {2, 0, 0, false, 3000.0},  {4, 2, 0, false, 3000.0},
      {8, 0, 45, false, 3000.0}, {1, 4, 32, false, 3000.0},
      {-1, 0, 0, false, 200000.0}, {0, 0, 0, true, 1400.0},
  };

  auto& registry = metrics::Registry::instance();
  auto& evaluated = registry.counter("opt.combos_evaluated");

  const auto request_for = [](const Point& p) {
    api::Request r;
    r.kind = api::RequestKind::kOptimize;
    r.optimize.scheme = api::SchemeId::kI;
    r.optimize.delay.target_ps = p.target_ps;
    r.optimize.organization.associativity = p.associativity;
    r.optimize.organization.banks = p.banks;
    r.optimize.node_nm = p.node_nm;
    r.optimize.power_gating.enabled = p.gated;
    if (p.gated) r.optimize.power_gating.perf_loss_budget = 0.1;
    return r;
  };

  const auto run_mode = [&](const api::Request& request, bool exhaustive,
                            std::uint64_t* combos) {
    api::ServiceConfig config;
    config.exhaustive_search = exhaustive;
    auto service = api::Service::create(config);
    if (!service) {
      std::cerr << "service: " << service.error().message << "\n";
      std::exit(1);
    }
    const std::uint64_t before = evaluated.value();
    const std::string bytes =
        api::response_to_json(service.value()->serve(request));
    *combos = evaluated.value() - before;
    return bytes;
  };

  bool all_identical = true;
  std::uint64_t total_pruned = 0, total_exhaustive = 0;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << "{\n  \"design_space\": {\n    \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const auto request = request_for(p);
    std::uint64_t pruned_combos = 0, exhaustive_combos = 0;
    const std::string pruned = run_mode(request, false, &pruned_combos);
    const std::string exhaustive = run_mode(request, true, &exhaustive_combos);
    const bool identical = pruned == exhaustive;
    all_identical = all_identical && identical;
    total_pruned += pruned_combos;
    total_exhaustive += exhaustive_combos;
    out << "      {\"associativity\": " << p.associativity
        << ", \"banks\": " << p.banks << ", \"node_nm\": " << p.node_nm
        << ", \"power_gating\": " << (p.gated ? "true" : "false")
        << ", \"pruned_combos\": " << pruned_combos
        << ", \"exhaustive_combos\": " << exhaustive_combos
        << ", \"byte_identical\": " << (identical ? "true" : "false") << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  const double ratio = total_pruned > 0
                           ? static_cast<double>(total_exhaustive) /
                                 static_cast<double>(total_pruned)
                           : 0.0;
  out << "    ],\n"
      << "    \"total_pruned_combos\": " << total_pruned << ",\n"
      << "    \"total_exhaustive_combos\": " << total_exhaustive << ",\n"
      << "    \"reduction_ratio\": " << ratio << ",\n"
      << "    \"byte_identical\": " << (all_identical ? "true" : "false")
      << "\n  }\n}\n";
  std::cout << "wrote " << path << " (points=" << points.size()
            << ", reduction_ratio=" << ratio
            << ", byte_identical=" << (all_identical ? "true" : "false")
            << ")\n";
  return all_identical ? 0 : 1;
}

/// Server-mode throughput: the batch workload served over a unix socket,
/// cold service vs warm, one client vs 8 concurrent.  The wall-clock
/// numbers are informational; the exit code gates only on byte-identity of
/// every served stream with batch-mode output.
int emit_serve_json(const std::string& path) {
  const auto workload = batch_workload();
  std::string input;
  for (const auto& request : workload) {
    input += api::request_to_json(request);
    input += '\n';
  }
  // The batch reference from a fresh service: the determinism contract
  // makes it byte-identical to any other service with the same config.
  const std::string expected = [&] {
    std::istringstream in(input);
    std::ostringstream out;
    api::run_batch_jsonl(*fresh_service(), in, out);
    return out.str();
  }();

  server::ServerConfig config;
  config.listen.kind = server::ListenKind::kUnix;
  config.listen.path = path + ".sock";
  std::filesystem::remove(config.listen.path);
  server::Server srv(fresh_service(), std::move(config));
  srv.start();

  const auto drive = [&](int clients, double* wall_s) {
    std::vector<std::string> got(clients);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto client = server::Client::connect(srv.config().listen);
        client.send(input);
        client.shutdown_write();
        while (auto line = client.read_line()) {
          got[c] += *line;
          got[c] += '\n';
        }
      });
    }
    for (auto& t : threads) t.join();
    *wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    for (const auto& stream : got) {
      if (stream != expected) return false;
    }
    return true;
  };

  struct Run {
    const char* phase;
    int clients;
    double wall_s = 0.0;
  };
  std::vector<Run> runs = {{"cold", 1}, {"warm", 1}, {"warm_concurrent", 8}};
  bool identical = true;
  for (auto& run : runs) {
    identical = drive(run.clients, &run.wall_s) && identical;
  }
  srv.shutdown();
  srv.wait();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"hardware_threads\": " << par::hardware_threads() << ",\n"
      << "  \"requests_per_client\": " << workload.size() << ",\n"
      << "  \"byte_identical_to_batch\": " << (identical ? "true" : "false")
      << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    const double total =
        static_cast<double>(workload.size()) * run.clients;
    out << "    {\"phase\": \"" << run.phase << "\", \"clients\": "
        << run.clients << ", \"requests\": " << static_cast<int>(total)
        << ", \"wall_s\": " << run.wall_s << ", \"requests_per_s\": "
        << (run.wall_s > 0.0 ? total / run.wall_s : 0.0) << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << " (byte_identical="
            << (identical ? "true" : "false") << ")\n";
  return identical ? 0 : 1;
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
      const int sweep_rc = emit_parallel_sweep_json(path);
      const int pruned_rc =
          emit_pruned_search_json("BENCH_pruned_search.json");
      const int serve_rc = emit_serve_json("BENCH_serve.json");
      const int space_rc =
          emit_design_space_json("BENCH_design_space.json");
      const int surrogate_rc = emit_surrogate_json("BENCH_surrogate.json");
      if (sweep_rc != 0) return sweep_rc;
      if (pruned_rc != 0) return pruned_rc;
      if (serve_rc != 0) return serve_rc;
      return space_rc != 0 ? space_rc : surrogate_rc;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
