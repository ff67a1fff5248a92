// nanocache command-line driver: ad-hoc model queries, single
// optimizations, experiment runs, batched JSONL serving and CSV export
// without writing C++.
//
//   nanocache_cli list
//   nanocache_cli cache --size 16384 [--l2] [--vth 0.35] [--tox 12]
//   nanocache_cli optimize --size 16384 --scheme II --delay-ps 1400
//   nanocache_cli run fig1|schemes|l2|l2split|l1|fig2
//   nanocache_cli batch requests.jsonl
//   nanocache_cli serve --listen unix:/run/nanocache.sock
//   nanocache_cli export --dir out_csv
//
// Request-shaped commands (cache, optimize, run schemes/l2/l2split/l1,
// batch) go through the public nanocache::api::Service facade — the same
// code path library consumers use; figure rendering and diagnostics use the
// documented Explorer escape hatch.
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/batch_io.h"
#include "api/metrics_json.h"
#include "api/request_args.h"
#include "api/surrogate_precompute.h"
#include "server/server.h"
#include "cachemodel/variation.h"
#include "core/explorer.h"
#include "core/report.h"
#include "nanocache/api.h"
#include "opt/sensitivity.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/units.h"

using namespace nanocache;
using api::CliArgs;

namespace {

/// Batch statistics captured by cmd_batch for the --metrics snapshot; the
/// metrics sink is written after dispatch, outside the command handlers.
std::optional<api::BatchStats> g_batch_stats;

int usage() {
  std::cout <<
      "usage:\n"
      "  nanocache_cli list\n"
      "  nanocache_cli cache --size <bytes> [--l2] [--vth V] [--tox A]\n"
      "               [--assoc 1|2|4|8|full] [--banks N] [--node nm]\n"
      "  nanocache_cli optimize --size <bytes> --scheme I|II|III "
      "--delay-ps <ps>\n"
      "               [--assoc 1|2|4|8|full] [--banks N] [--node nm]\n"
      "               [--power-gating] [--perf-loss-budget F]\n"
      "  nanocache_cli run fig1|schemes|l2|l2split|l1|fig2 "
      "[--fitted] [--strict]\n"
      "  nanocache_cli run schemes [--size <bytes>] [--steps N]\n"
      "  nanocache_cli run l2|l2split|l1 [--amat-ps <ps>] [--node nm]\n"
      "  nanocache_cli batch <requests.jsonl | -> \n"
      "  nanocache_cli serve --listen <unix:/path/sock | tcp:host:port>\n"
      "               [--max-line-bytes N] [--queue-capacity N]\n"
      "  nanocache_cli capabilities\n"
      "  nanocache_cli precompute --out <dir> [--l1-sizes a,b] "
      "[--l2-sizes a,b]\n"
      "               [--nodes 0,90,...] [--target-steps N] [--stamp TEXT]\n"
      "  nanocache_cli frontier --size <bytes> [--l2] --scheme I|II|III\n"
      "  nanocache_cli sensitivity --size <bytes> [--l2] [--vth V] "
      "[--tox A]\n"
      "  nanocache_cli variation --size <bytes> [--l2] [--vth V] [--tox A] "
      "[--samples N]\n"
      "  nanocache_cli export [--dir <directory>] [--fitted] [--strict]\n"
      "flags:\n"
      "  --fitted     drive experiments from the paper's fitted closed forms\n"
      "  --strict     treat fitted-model degradation as a hard error\n"
      "  --assoc 1|2|4|8|full  explicit set-associativity: engages the\n"
      "               split-tag model (tag array + way comparators as fifth\n"
      "               and sixth optimizable components)\n"
      "  --banks N    multi-bank organization (power of two <= 8)\n"
      "  --node nm    technology node: 90|65|45|32|22 (default: the 65 nm\n"
      "               node the paper calibrates)\n"
      "  --power-gating          let the optimizer park idle components in\n"
      "               sleep states (leakage cut to a fraction)\n"
      "  --perf-loss-budget F    relax the delay constraint by the fraction\n"
      "               F in [0,1] to pay for sleep-state wake latency\n"
      "  --cache-dir <dir>  persist results across runs (also the\n"
      "               NANOCACHE_CACHE_DIR environment variable; the flag\n"
      "               wins).  Segments are fingerprinted by configuration,\n"
      "               so differently configured runs never share entries.\n"
      "  --surrogate-dir <dir>  load precomputed optimize ladders and serve\n"
      "               covered optimize requests from them (also the\n"
      "               NANOCACHE_SURROGATE_DIR environment variable; the\n"
      "               flag wins).  Uncovered requests and every eval fall\n"
      "               back to the exact engine; see --exactness.\n"
      "  --exactness exact|surrogate|auto  v4 routing for cache/optimize:\n"
      "               'exact' always runs the exact engine, 'surrogate'\n"
      "               errors unless a table covers the request (no table\n"
      "               covers an eval), 'auto' (default) prefers tables and\n"
      "               falls back\n"
      "  --search pruned|exhaustive  assignment search engine (default\n"
      "               pruned; both return byte-identical results, the\n"
      "               exhaustive oracle is for differential testing)\n"
      "  --memo-shards N  lock-stripe shards of the in-process memo cache\n"
      "               (power of two <= 4096; default 16; also the\n"
      "               NANOCACHE_MEMO_SHARDS environment variable, the flag\n"
      "               wins).  Purely a concurrency knob: results are\n"
      "               byte-identical at any shard count.\n"
      "  --threads N  worker threads for sweeps (default: hardware "
      "concurrency;\n"
      "               results are identical at any thread count).  The\n"
      "               NANOCACHE_THREADS environment variable accepts 1-1024\n"
      "               (capped at 64 workers); anything else is a config "
      "error.\n"
      "  --metrics <file|->  after the command finishes, write the process\n"
      "               metrics snapshot (counters, histograms, phase timings,\n"
      "               spans; docs/API.md) as JSON to <file>, or to stderr\n"
      "               for '-'.  Never touches stdout: command output stays\n"
      "               byte-identical with or without this flag.\n"
      "batch: one JSON request per line (docs/API.md); one response line per\n"
      "  request, in input order.  Per-request failures stay in-band as\n"
      "  error responses; the process exits 0 unless the stream itself is\n"
      "  unreadable.  Dedup/memoization stats go to stderr.\n"
      "precompute: drive the exact optimizer over a delay-target ladder and\n"
      "  write surrogate answer tables (with proven per-answer error\n"
      "  bounds) under --out, keyed by the service configuration's\n"
      "  fingerprint.  A later run pointed at the same directory via\n"
      "  --surrogate-dir picks them up automatically.\n"
      "serve: speak the batch JSONL protocol over a socket, multiplexing\n"
      "  concurrent clients onto one warm service (docs/API.md).  Responses\n"
      "  per connection are byte-identical to batch output for the same\n"
      "  lines.  SIGINT/SIGTERM drain in-flight requests, flush the disk\n"
      "  cache, and exit 0.\n"
      "exit codes (from the error taxonomy; scripts branch on these):\n"
      "  0 ok    1 internal     2 config (malformed request/flags)\n"
      "  3 io    4 numeric-domain or infeasible\n";
  return 2;
}

/// Build the facade service honoring the shared --fitted/--strict flags;
/// prints the typed error and exits via the documented code on failure.
std::shared_ptr<api::Service> make_service(const CliArgs& args) {
  auto service = api::Service::create(api::service_config_from_args(args));
  if (!service) {
    std::cerr << "error: " << service.error().message << "\n";
    std::exit(api::exit_code_for(service.error().code));
  }
  return service.value();
}

/// Surface recorded fitted->structural fallbacks after a run; silent when
/// nothing degraded.  Goes to stderr so stdout stays machine-comparable.
void print_degradations(const api::Service& service) {
  const auto& events = service.explorer().degradation_events();
  if (events.empty()) return;
  std::cerr << "note: fitted model degraded " << events.size()
            << " time(s):\n";
  for (const auto& e : events) {
    std::cerr << "  " << e.model << ": " << e.reason << "\n";
  }
}

int cmd_list() {
  TextTable t("experiments");
  t.set_header({"name", "paper artifact"});
  t.add_row({"fig1", "Figure 1: fixed-Vth vs fixed-Tox, 16KB"});
  t.add_row({"schemes", "Section 4: scheme I/II/III comparison"});
  t.add_row({"l2", "Section 5: L2 size sweep, one pair"});
  t.add_row({"l2split", "Section 5: L2 size sweep, array/periphery split"});
  t.add_row({"l1", "Section 5: L1 size sweep"});
  t.add_row({"fig2", "Figure 2: (Tox, Vth) tuple problem"});
  std::cout << t;
  return 0;
}

int cmd_cache(const api::Service& service, const api::Request& request) {
  const auto out = service.evaluate(request.eval);
  if (!out) {
    std::cerr << "error: " << out.error().message << "\n";
    return api::exit_code_for(out.error().code);
  }
  const auto& e = *out;
  std::cout << e.organization << " at Vth="
            << fmt_fixed(request.eval.knobs.vth_v, 2) << "V Tox="
            << fmt_fixed(request.eval.knobs.tox_a, 1) << "A\n";
  TextTable t;
  t.set_header({"component", "delay [pS]", "leakage [mW]", "dynamic [pJ]"});
  for (const auto& c : e.components) {
    t.add_row({c.component, fmt_fixed(c.delay_ps, 1),
               fmt_fixed(c.leakage_mw, 4), fmt_fixed(c.dynamic_pj, 3)});
  }
  t.add_row({"TOTAL", fmt_fixed(e.access_time_ps, 1),
             fmt_fixed(e.leakage_mw, 4), fmt_fixed(e.dynamic_pj, 3)});
  std::cout << t;
  print_degradations(service);
  return 0;
}

int cmd_optimize(const api::Service& service, const api::Request& request) {
  const auto out = service.optimize(request.optimize);
  if (!out) {
    std::cerr << "error: " << out.error().message << "\n";
    return api::exit_code_for(out.error().code);
  }
  const auto& r = out->result;
  if (!r.feasible) {
    std::cerr << "error: " << r.infeasible_reason << "\n";
    return 4;
  }
  std::cout << "scheme " << api::scheme_id_name(request.optimize.scheme)
            << " optimum under "
            << fmt_fixed(request.optimize.delay.target_ps, 0) << " pS:\n";
  bool any_gated = false;
  for (const auto& c : r.assignment) any_gated |= c.gated;
  TextTable t;
  if (any_gated) {
    t.set_header({"component", "Vth [V]", "Tox [A]", "sleep"});
    for (const auto& c : r.assignment) {
      t.add_row({c.component, fmt_fixed(c.knobs.vth_v, 2),
                 fmt_fixed(c.knobs.tox_a, 0), c.gated ? "gated" : ""});
    }
  } else {
    t.set_header({"component", "Vth [V]", "Tox [A]"});
    for (const auto& c : r.assignment) {
      t.add_row({c.component, fmt_fixed(c.knobs.vth_v, 2),
                 fmt_fixed(c.knobs.tox_a, 0)});
    }
  }
  std::cout << t << "leakage " << fmt_fixed(r.leakage_mw, 4) << " mW at "
            << fmt_fixed(r.access_time_ps, 1) << " pS\n";
  print_degradations(service);
  return 0;
}

TextTable schemes_table(const api::SweepResponse& sweep) {
  TextTable t("scheme_comparison");
  t.set_header({"target_ps", "scheme", "leakage_mw", "achieved_ps", "note"});
  const auto emit = [&t](double target_ps, const char* name,
                         const api::OptimizedCache& r) {
    t.add_row({fmt_fixed(target_ps, 1), name,
               r.feasible ? fmt_fixed(r.leakage_mw, 4) : "infeasible",
               r.feasible ? fmt_fixed(r.access_time_ps, 1) : "-",
               r.feasible ? "" : r.infeasible_reason});
  };
  for (const auto& row : sweep.schemes) {
    emit(row.delay_target_ps, "I", row.scheme1);
    emit(row.delay_target_ps, "II", row.scheme2);
    emit(row.delay_target_ps, "III", row.scheme3);
  }
  return t;
}

TextTable sizes_table(const api::SweepResponse& sweep,
                      const std::string& level_name) {
  TextTable t(level_name + "_size_sweep");
  t.set_header({"size_bytes", "miss_rate", "feasible", "level_leakage_mw",
                "total_leakage_mw", "amat_ps", "note"});
  for (const auto& r : sweep.sizes) {
    t.add_row({std::to_string(r.size_bytes), fmt_fixed(r.miss_rate, 5),
               r.feasible ? "1" : "0",
               r.feasible ? fmt_fixed(r.level_leakage_mw, 4) : "-",
               r.feasible ? fmt_fixed(r.total_leakage_mw, 4) : "-",
               r.feasible ? fmt_fixed(r.amat_ps, 1) : "-",
               r.infeasible_reason});
  }
  return t;
}

int cmd_run(const api::Service& service, const CliArgs& args) {
  const std::string& which = args.positional;
  // Figure rendering is not request-shaped; it uses the escape hatch.
  if (which == "fig1") {
    const auto& explorer = service.explorer();
    std::cout << core::fig1_long_table(
        explorer.fig1_fixed_knob(explorer.config().l1_size_bytes));
    print_degradations(service);
    return 0;
  }
  if (which == "fig2") {
    std::cout << core::fig2_long_table(service.explorer().fig2_tuple_frontiers());
    print_degradations(service);
    return 0;
  }
  auto request = api::request_from_args(args);
  if (!request) {
    std::cerr << "error: " << request.error().message << "\n";
    return usage();
  }
  const auto out = service.sweep(request->sweep);
  if (!out) {
    std::cerr << "error: " << out.error().message << "\n";
    return api::exit_code_for(out.error().code);
  }
  if (out->kind == api::SweepKind::kSchemes) {
    std::cout << schemes_table(*out);
  } else if (which == "l2") {
    std::cout << sizes_table(*out, "l2_uniform");
  } else if (which == "l2split") {
    std::cout << sizes_table(*out, "l2_split");
  } else {
    std::cout << sizes_table(*out, "l1");
  }
  print_degradations(service);
  return 0;
}

int cmd_batch(const api::Service& service, const CliArgs& args) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (!args.positional.empty() && args.positional != "-") {
    file.open(args.positional);
    NC_REQUIRE_IO(file.good(),
                  "cannot open batch request file: " + args.positional);
    in = &file;
  }
  const auto stats = api::run_batch_jsonl(service, *in, std::cout);
  g_batch_stats = stats;
  std::cerr << "batch: " << stats.requests << " request(s), "
            << stats.unique_requests << " unique; request hits "
            << stats.request_hits << ", memo hits " << stats.memo_hits
            << ", memo misses " << stats.memo_misses << ", hit rate "
            << fmt_fixed(stats.hit_rate(), 3) << "\n";
  if (!service.config().cache_dir.empty()) {
    std::cerr << "disk cache: " << stats.disk_hits << " hit(s), "
              << stats.disk_misses << " miss(es)\n";
  }
  print_degradations(service);
  return 0;
}

int cmd_serve(std::shared_ptr<api::Service> service, const CliArgs& args) {
  const auto it = args.flags.find("listen");
  NC_REQUIRE(it != args.flags.end() && it->second != "true",
             "serve requires --listen unix:<path> or tcp:<host>:<port>");
  server::ServerConfig config;
  config.listen = server::parse_listen_spec(it->second);
  config.max_line_bytes =
      static_cast<std::size_t>(api::flag_uint(args, "max-line-bytes",
                                              config.max_line_bytes));
  NC_REQUIRE(config.max_line_bytes > 0, "--max-line-bytes must be positive");
  config.queue_capacity =
      static_cast<std::size_t>(api::flag_uint(args, "queue-capacity",
                                              config.queue_capacity));
  NC_REQUIRE(config.queue_capacity > 0, "--queue-capacity must be positive");
  // config.workers = 0: the server sizes its pool from the process default,
  // which --threads / NANOCACHE_THREADS already configured in main().

  server::Server server(std::move(service), std::move(config));
  server.start();
  server::Server::install_signal_handlers(server);
  const auto& spec = server.config().listen;
  std::cerr << "serve: listening on "
            << (spec.kind == server::ListenKind::kTcp
                    ? "tcp:" + spec.host + ":" +
                          std::to_string(server.tcp_port())
                    : spec.describe())
            << " (SIGINT/SIGTERM to drain and exit)\n";
  server.wait();
  const auto stats = server.stats();
  std::cerr << "serve: drained; " << stats.connections_accepted
            << " connection(s), " << stats.requests_admitted
            << " request(s), " << stats.responses_written
            << " response(s) written, " << stats.lines_rejected_too_long
            << " oversized line(s) rejected, " << stats.control_requests
            << " control request(s)\n";
  return 0;
}

/// Comma-separated unsigned list flag ("16384,32768"); empty when absent.
std::vector<std::uint64_t> flag_uint_list(const CliArgs& args,
                                          const std::string& key) {
  std::vector<std::uint64_t> values;
  const auto it = args.flags.find(key);
  if (it == args.flags.end()) return values;
  std::string item;
  std::istringstream stream(it->second);
  while (std::getline(stream, item, ',')) {
    try {
      values.push_back(std::stoull(item));
    } catch (const std::exception&) {
      throw Error(ErrorCategory::kConfig,
                  "--" + key + " expects comma-separated non-negative "
                  "integers, got '" + it->second + "'");
    }
  }
  return values;
}

int cmd_precompute(const api::Service& service, const CliArgs& args) {
  const auto out_it = args.flags.find("out");
  NC_REQUIRE(out_it != args.flags.end() && out_it->second != "true",
             "precompute requires --out <dir>");
  api::PrecomputeOptions options;
  options.l1_sizes = flag_uint_list(args, "l1-sizes");
  options.l2_sizes = flag_uint_list(args, "l2-sizes");
  if (const auto nodes = flag_uint_list(args, "nodes"); !nodes.empty()) {
    options.nodes.assign(nodes.begin(), nodes.end());
  }
  options.target_steps = static_cast<int>(
      api::flag_uint(args, "target-steps", options.target_steps));
  const auto stamp = args.flags.find("stamp");
  if (stamp != args.flags.end() && stamp->second != "true") {
    options.stamp = stamp->second;
  }
  const auto summary =
      api::precompute_surrogate(service, out_it->second, options);
  std::cout << "wrote " << summary.optimize_tables << " optimize table(s) to "
            << summary.path << "\n"
            << "fingerprint " << summary.fingerprint << "; spent "
            << summary.exact_evals << " exact eval(s), "
            << summary.exact_optimizes << " exact optimize(s)\n";
  print_degradations(service);
  return 0;
}

int cmd_capabilities(const api::Service& service) {
  api::Request request;
  request.kind = api::RequestKind::kCapabilities;
  const api::Response response = service.serve(request);
  std::cout << api::response_to_json(response) << "\n";
  return response.ok ? 0 : api::exit_code_for(response.error.code);
}

int cmd_frontier(const api::Service& service, const CliArgs& args) {
  const auto size = api::flag_uint(args, "size", 16 * 1024);
  const bool is_l2 = api::flag_present(args, "l2");
  opt::Scheme scheme = opt::Scheme::kArrayPeriphery;
  const auto it = args.flags.find("scheme");
  if (it != args.flags.end()) {
    if (it->second == "I") scheme = opt::Scheme::kPerComponent;
    else if (it->second == "III") scheme = opt::Scheme::kUniform;
  }
  const auto& explorer = service.explorer();
  const auto& model =
      is_l2 ? explorer.l2_model(size) : explorer.l1_model(size);
  const auto front = opt::scheme_frontier(explorer.evaluator(model),
                                          explorer.config().grid, scheme);
  TextTable t("leakage/delay frontier, scheme " + opt::scheme_name(scheme));
  t.set_header({"access time [pS]", "leakage [mW]"});
  for (const auto& p : front) {
    t.add_row({fmt_fixed(units::seconds_to_ps(p.access_time_s), 1),
               fmt_fixed(units::watts_to_mw(p.leakage_w), 4)});
  }
  std::cout << t;
  print_degradations(service);
  return 0;
}

int cmd_sensitivity(const api::Service& service, const CliArgs& args) {
  const auto size = api::flag_uint(args, "size", 16 * 1024);
  const bool is_l2 = api::flag_present(args, "l2");
  const tech::DeviceKnobs at{api::flag_double(args, "vth", 0.35),
                             api::flag_double(args, "tox", 12.0)};
  const auto& explorer = service.explorer();
  const auto& model =
      is_l2 ? explorer.l2_model(size) : explorer.l1_model(size);
  const auto s = opt::cache_sensitivity(opt::structural_evaluator(model), at,
                                        explorer.config().technology.knobs);
  TextTable t("knob sensitivities at Vth=" + fmt_fixed(at.vth_v, 2) +
              "V, Tox=" + fmt_fixed(at.tox_a, 1) + "A");
  t.set_header({"metric", "vs Vth", "vs Tox"});
  t.add_row({"d ln(leakage) / d knob", fmt_fixed(s.leakage_vs_vth, 2) + " /V",
             fmt_fixed(s.leakage_vs_tox, 3) + " /A"});
  t.add_row({"d ln(delay) / d knob", fmt_fixed(s.delay_vs_vth, 2) + " /V",
             fmt_fixed(s.delay_vs_tox, 3) + " /A"});
  t.add_row({"leakage bought per delay",
             fmt_fixed(s.leakage_efficiency_vth(), 2),
             fmt_fixed(s.leakage_efficiency_tox(), 2)});
  std::cout << t;
  return 0;
}

int cmd_variation(const api::Service& service, const CliArgs& args) {
  const auto size = api::flag_uint(args, "size", 16 * 1024);
  const bool is_l2 = api::flag_present(args, "l2");
  const cachemodel::ComponentAssignment knobs(
      tech::DeviceKnobs{api::flag_double(args, "vth", 0.35),
                        api::flag_double(args, "tox", 12.0)});
  const auto& explorer = service.explorer();
  const auto& model =
      is_l2 ? explorer.l2_model(size) : explorer.l1_model(size);
  cachemodel::VariationParams p;
  p.samples = static_cast<int>(api::flag_uint(args, "samples", 500));
  const auto nominal = model.evaluate(knobs);
  const auto r = cachemodel::monte_carlo(model, knobs, p,
                                         nominal.access_time_s);
  TextTable t("Monte Carlo (" + std::to_string(r.samples) + " samples)");
  t.set_header({"metric", "nominal", "mean", "p95", "max"});
  t.add_row({"leakage [mW]",
             fmt_fixed(units::watts_to_mw(nominal.leakage_w), 3),
             fmt_fixed(units::watts_to_mw(r.leakage_w.mean), 3),
             fmt_fixed(units::watts_to_mw(r.leakage_w.p95), 3),
             fmt_fixed(units::watts_to_mw(r.leakage_w.max), 3)});
  t.add_row({"access time [pS]",
             fmt_fixed(units::seconds_to_ps(nominal.access_time_s), 1),
             fmt_fixed(units::seconds_to_ps(r.access_time_s.mean), 1),
             fmt_fixed(units::seconds_to_ps(r.access_time_s.p95), 1),
             fmt_fixed(units::seconds_to_ps(r.access_time_s.max), 1)});
  std::cout << t << "timing yield at the nominal delay: "
            << fmt_fixed(r.timing_yield * 100.0, 1) << "%\n";
  return 0;
}

int cmd_export(const api::Service& service, const CliArgs& args) {
  const auto it = args.flags.find("dir");
  const std::string dir = it == args.flags.end() ? "nanocache_csv" : it->second;
  const int n = core::export_all_csv(service.explorer(), dir);
  std::cout << "wrote " << n << " CSV files to " << dir << "/\n";
  print_degradations(service);
  return 0;
}

int dispatch(const CliArgs& args) {
  if (args.command == "list") return cmd_list();
  if (args.command == "cache" || args.command == "optimize") {
    auto request = api::request_from_args(args);
    if (!request) {
      std::cerr << "error: " << request.error().message << "\n";
      return api::exit_code_for(request.error().code);
    }
    const auto service = make_service(args);
    return args.command == "cache" ? cmd_cache(*service, *request)
                                   : cmd_optimize(*service, *request);
  }
  if (args.command == "run") return cmd_run(*make_service(args), args);
  if (args.command == "batch") return cmd_batch(*make_service(args), args);
  if (args.command == "serve") return cmd_serve(make_service(args), args);
  if (args.command == "capabilities") {
    return cmd_capabilities(*make_service(args));
  }
  if (args.command == "precompute") {
    return cmd_precompute(*make_service(args), args);
  }
  if (args.command == "frontier") return cmd_frontier(*make_service(args), args);
  if (args.command == "sensitivity") {
    return cmd_sensitivity(*make_service(args), args);
  }
  if (args.command == "variation") {
    return cmd_variation(*make_service(args), args);
  }
  if (args.command == "export") return cmd_export(*make_service(args), args);
  return usage();
}

/// Honor --metrics <file|-> after the command ran.  The snapshot goes to a
/// separate sink (a file, or stderr for "-") so stdout — the surface the
/// byte-identity guarantees cover — is never mixed with observability data.
void write_metrics_if_requested(const CliArgs& args) {
  const auto it = args.flags.find("metrics");
  if (it == args.flags.end()) return;
  NC_REQUIRE(it->second != "true" && !it->second.empty(),
             "--metrics expects a file path or '-'");
  const api::BatchStats* batch =
      g_batch_stats ? &*g_batch_stats : nullptr;
  const std::string json = api::current_metrics_json(batch);
  if (it->second == "-") {
    std::cerr << json << "\n";
    return;
  }
  std::ofstream out(it->second);
  NC_REQUIRE_IO(out.good(),
                "cannot open metrics output file: " + it->second);
  out << json << "\n";
  out.flush();
  NC_REQUIRE_IO(out.good(),
                "cannot write metrics output file: " + it->second);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = api::parse_cli_args(argc, argv);
    // 0 or a missing flag keeps the pool default (hardware concurrency, or
    // the NANOCACHE_THREADS environment variable when set).
    if (const int threads = api::threads_from_args(args); threads > 0) {
      par::set_default_threads(threads);
    }
    // Surface a malformed NANOCACHE_THREADS as a config error (exit 2)
    // before any command runs, instead of at first pool use.
    (void)par::default_threads();
    const int rc = dispatch(args);
    write_metrics_if_requested(args);
    return rc;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    switch (e.category()) {
      case ErrorCategory::kConfig: return 2;
      case ErrorCategory::kIo: return 3;
      case ErrorCategory::kNumericDomain:
      case ErrorCategory::kInfeasible: return 4;
      case ErrorCategory::kInternal: return 1;
    }
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
