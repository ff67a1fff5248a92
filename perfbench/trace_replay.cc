// In-process traced replay of one benchmark workload.
//
//   nc_trace --lines FILE --spans FILE [--warm N] [--threads N]
//            [--surrogate-dir DIR] [--cache-root DIR] [--socket PATH]
//
// Replays the workload's generated request lines through the public
// functions of each layer and records one span per call: name, start, end
// and parent, plus a short tag (request kind, serving tier, scheme, menu
// shape).  Spans stay in memory and are written to --spans as TSV when the
// replay ends.  Nothing inside the library is instrumented; every span sits
// around a call made from this file.
//
// Passes, each on a freshly created Service (so caches start cold):
//   request  parse_request_json -> request_canonical_key -> Service::serve
//            -> response_line per line, serially.  Run untraced and traced
//            twice each, alternating; the wall ratio is the tracing overhead.
//   batch    Service::run_batch over all parsed lines (registry phase
//            aggregates give per-request serve time and the straggler).
//   server   (--socket) an in-process server::Server; one client connection
//            sends the lines closed-loop and times each round trip.
//   layer    each unique request again, split into the module calls that
//            answer it: cachemodel kernels, opt searches, explorer sweeps,
//            the tuple-menu solver, surrogate lookups and the disk-cache
//            response parse.
// The first --warm lines of the request and server passes are served
// untimed and untraced.
// Prints one JSON summary line on stdout.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/batch_io.h"
#include "cachemodel/cache_model.h"
#include "core/explorer.h"
#include "nanocache/api.h"
#include "opt/options.h"
#include "opt/schemes.h"
#include "opt/tuple_menu.h"
#include "server/server.h"
#include "surrogate/store.h"
#include "tech/params.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/units.h"

using namespace nanocache;

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& message) {
  std::cerr << "nc_trace: " << message << "\n";
  std::exit(2);
}

class Tracer {
 public:
  struct Span {
    std::uint32_t parent = 0;  ///< 1-based index of the parent; 0 = root
    const char* name = "";
    std::string tag;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// RAII span; a no-op while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::string tag = {})
        : tracer_(tracer) {
      if (!tracer_.enabled) return;
      Span span;
      span.parent = tracer_.stack_.empty() ? 0 : tracer_.stack_.back();
      span.name = name;
      span.tag = std::move(tag);
      tracer_.spans_.push_back(std::move(span));
      index_ = tracer_.spans_.size();
      tracer_.stack_.push_back(static_cast<std::uint32_t>(index_));
      tracer_.spans_.back().start_ns = tracer_.now_ns();
    }
    ~Scope() {
      if (index_ == 0) return;
      tracer_.spans_[index_ - 1].end_ns = tracer_.now_ns();
      tracer_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_tag(std::string tag) {
      if (index_ != 0) tracer_.spans_[index_ - 1].tag = std::move(tag);
    }

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
  };

  bool enabled = false;

  void clear() { spans_.clear(); }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i + 1) << '\t' << s.parent << '\t' << s.name << '\t'
          << (s.tag.empty() ? "-" : s.tag) << '\t' << s.start_ns << '\t'
          << s.end_ns << '\n';
    }
    if (!out) die("cannot write " + path);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

Tracer g_tracer;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string lines_path, spans_path, surrogate_dir, cache_root, socket_path;
  std::size_t warm = 0;
  int threads = 0;
};

class Replay {
 public:
  Replay(Options options, std::vector<std::string> lines)
      : options_(std::move(options)), lines_(std::move(lines)) {}

  std::shared_ptr<api::Service> create_service() {
    api::ServiceConfig config;
    config.surrogate_dir = options_.surrogate_dir;
    if (!options_.cache_root.empty()) {
      config.cache_dir =
          options_.cache_root + "/c" + std::to_string(services_created_);
    }
    ++services_created_;
    const bool was_enabled = g_tracer.enabled;
    g_tracer.enabled = true;
    auto service = [&] {
      Tracer::Scope span(g_tracer, "service.create");
      return api::Service::create(config);
    }();
    g_tracer.enabled = was_enabled;
    if (!service) die("Service::create failed: " + service.error().message);
    return service.value();
  }

  /// Request pass: returns the wall time of the lines after the warm set.
  /// A traced pass replaces the request spans of any earlier one.
  double request_pass(bool traced) {
    if (traced) g_tracer.clear();
    const auto service = create_service();
    g_tracer.enabled = false;
    responses_.assign(lines_.size(), std::string());
    for (std::size_t i = 0; i < options_.warm && i < lines_.size(); ++i) {
      serve_line(*service, i);
    }
    g_tracer.enabled = traced;
    const auto start = Clock::now();
    for (std::size_t i = options_.warm; i < lines_.size(); ++i) {
      serve_line(*service, i);
    }
    const double wall = seconds_since(start);
    g_tracer.enabled = false;
    memo_entries_ = service->memo_stats().entries;
    return wall;
  }

  /// Batch pass: one span around Service::run_batch plus the registry's own
  /// per-request serve aggregates.
  void batch_pass() {
    const auto service = create_service();
    std::vector<api::Request> requests;
    for (const auto& line : lines_) {
      auto parsed = api::parse_request_json(line);
      if (parsed) requests.push_back(std::move(parsed.value()));
    }
    metrics::Registry::instance().reset();
    g_tracer.enabled = true;
    const auto start = Clock::now();
    {
      Tracer::Scope span(g_tracer, "service.run_batch");
      const auto batch = service->run_batch(requests);
      if (batch.responses.size() != requests.size()) die("short batch");
    }
    batch_wall_s_ = seconds_since(start);
    g_tracer.enabled = false;
    const auto snapshot = metrics::Registry::instance().snapshot();
    const auto it = snapshot.phases.find("api.serve");
    if (it != snapshot.phases.end()) {
      batch_serve_total_s_ = static_cast<double>(it->second.total_ns) * 1e-9;
      batch_serve_max_s_ = static_cast<double>(it->second.max_ns) * 1e-9;
    }
    batch_threads_ = std::min(par::default_threads(), par::hardware_threads());
  }

  /// Server pass: closed-loop round trips over one unix-socket connection.
  void server_pass() {
    if (options_.socket_path.empty()) return;
    server::ServerConfig config;
    config.listen = server::parse_listen_spec("unix:" + options_.socket_path);
    server::Server server(create_service(), config);
    server.start();
    const int fd = connect_unix(options_.socket_path);
    std::string buffer, response;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      g_tracer.enabled = i >= options_.warm;
      {
        Tracer::Scope span(g_tracer, "server.rtt");
        send_all(fd, lines_[i] + "\n");
        response = read_line(fd, buffer);
      }
      if (response != responses_[i]) ++mismatched_;
    }
    g_tracer.enabled = false;
    ::close(fd);
    server.shutdown();
    server.wait();
  }

  /// Layer pass: the module calls behind each unique request.
  void layer_pass() {
    const auto service = create_service();
    std::unique_ptr<surrogate::SurrogateStore> store;
    g_tracer.enabled = true;
    if (!options_.surrogate_dir.empty()) {
      Tracer::Scope span(g_tracer, "surrogate.open");
      store = surrogate::SurrogateStore::open(
          options_.surrogate_dir, service->configuration_fingerprint());
    }
    std::set<std::string> seen;
    for (const auto& text : lines_) {
      auto parsed = api::parse_request_json(text);
      if (!parsed) continue;
      const api::Request& request = parsed.value();
      if (!seen.insert(api::request_canonical_key(request)).second) continue;
      layer_calls(*service, store.get(), request);
      if (!options_.cache_root.empty() &&
          request.kind != api::RequestKind::kCapabilities) {
        // The bytes a disk-cache hit would re-parse: the response, id-less.
        g_tracer.enabled = false;
        api::Response stored = service->serve(request);
        g_tracer.enabled = true;
        if (!stored.ok) continue;
        stored.id.clear();
        const std::string line = api::response_to_json(stored);
        Tracer::Scope span(g_tracer, "disk.parse_response");
        if (!api::parse_response_json(line)) die("stored response unparsable");
      }
    }
    g_tracer.enabled = false;
  }

  void print_summary(const std::vector<double>& untraced,
                     const std::vector<double>& traced) const {
    auto list = [](const std::vector<double>& v) {
      std::string s = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s%.9f", i ? "," : "", v[i]);
        s += buf;
      }
      return s + "]";
    };
    std::printf(
        "{\"lines\":%zu,\"warm\":%zu,\"untraced_wall_s\":%s,"
        "\"traced_wall_s\":%s,\"memo_entries\":%zu,\"batch_wall_s\":%.9f,"
        "\"batch_serve_total_s\":%.9f,\"batch_serve_max_s\":%.9f,"
        "\"batch_threads\":%d,\"mismatched\":%zu}\n",
        lines_.size(), options_.warm, list(untraced).c_str(),
        list(traced).c_str(), memo_entries_, batch_wall_s_,
        batch_serve_total_s_, batch_serve_max_s_, batch_threads_,
        mismatched_);
  }

 private:
  void serve_line(const api::Service& service, std::size_t i) {
    static auto& disk_hits =
        metrics::Registry::instance().counter("api.disk.hits");
    static auto& surrogate_hits =
        metrics::Registry::instance().counter("api.surrogate.hits");
    static auto& memo_misses =
        metrics::Registry::instance().counter("api.memo.misses");
    Tracer::Scope request_span(g_tracer, "request");
    api::Response response;
    auto parsed = [&] {
      Tracer::Scope span(g_tracer, "batch_io.parse_request");
      return api::parse_request_json(lines_[i]);
    }();
    if (!parsed) {
      // Mirrors run_batch_jsonl: the parse failure is answered in place.
      response.error = parsed.error();
      response.error.message =
          "line " + std::to_string(i + 1) + ": " + response.error.message;
    } else {
      const api::Request& request = parsed.value();
      {
        Tracer::Scope span(g_tracer, "batch_io.canonical_key");
        (void)api::request_canonical_key(request);
      }
      const auto disk_before = disk_hits.value();
      const auto surrogate_before = surrogate_hits.value();
      const auto misses_before = memo_misses.value();
      {
        Tracer::Scope span(g_tracer, "service.serve",
                           api::request_kind_name(request.kind));
        response = service.serve(request);
      }
      if (g_tracer.enabled) {
        const char* tier = "compute";
        if (disk_hits.value() != disk_before) {
          tier = "disk";
        } else if (surrogate_hits.value() != surrogate_before) {
          tier = "surrogate";
        } else if (memo_misses.value() == misses_before) {
          tier = "memo";
        }
        request_span.set_tag(tier);
      }
    }
    Tracer::Scope span(g_tracer, "batch_io.response_line");
    responses_[i] = api::response_line(response);
  }

  const core::Explorer& explorer_for(const api::Service& service,
                                     int node_nm) {
    if (node_nm == 0) return service.explorer();
    auto& slot = node_explorers_[node_nm];
    if (!slot) {
      // Same per-node configuration the service derives for v3 node_nm.
      core::ExperimentConfig config = service.explorer().config();
      config.technology = tech::node_params(node_nm);
      config.grid = opt::KnobGrid::paper_default();
      config.grid.tox_values = tech::node_tox_grid(config.technology);
      config.default_knobs =
          tech::DeviceKnobs{0.35, config.technology.tox_nominal_a};
      slot = std::make_unique<core::Explorer>(std::move(config));
    }
    return *slot;
  }

  static opt::Scheme to_scheme(api::SchemeId id) {
    switch (id) {
      case api::SchemeId::kI: return opt::Scheme::kPerComponent;
      case api::SchemeId::kII: return opt::Scheme::kArrayPeriphery;
      case api::SchemeId::kIII: return opt::Scheme::kUniform;
    }
    return opt::Scheme::kArrayPeriphery;
  }

  /// GridSpec semantics: size 0 is the configured default for the level.
  static std::uint64_t resolve_size(const core::Explorer& ex,
                                    api::Level level, std::uint64_t size) {
    if (size != 0) return size;
    return level == api::Level::kL2 ? ex.config().l2_size_bytes
                                    : ex.config().l1_size_bytes;
  }

  const cachemodel::CacheModel& model_for(const core::Explorer& ex,
                                          api::Level level,
                                          std::uint64_t size,
                                          const api::OrganizationSpec& org) {
    const bool l2 = level == api::Level::kL2;
    size = resolve_size(ex, level, size);
    if (org.is_default()) return l2 ? ex.l2_model(size) : ex.l1_model(size);
    // The service's default associativity: L1 2-way, L2 8-way.
    const int assoc =
        org.associativity != 0 ? org.associativity : (l2 ? 8 : 2);
    return ex.variant_model(size, l2, assoc, org.banks == 0 ? 1 : org.banks);
  }

  void optimize_call(const core::Explorer& ex,
                     const cachemodel::CacheModel& model,
                     const api::OrganizationSpec& org,
                     const api::PowerGatingSpec& gating, api::SchemeId scheme,
                     double target_ps) {
    const auto eval = org.is_default() ? ex.evaluator(model)
                                       : opt::structural_evaluator(model);
    opt::OptSpace space = org.is_default() ? opt::OptSpace::base()
                                           : opt::OptSpace::extended();
    space.gating.enabled = gating.enabled;
    const double delay_s =
        units::ps_to_seconds(target_ps) *
        (gating.enabled ? 1.0 + gating.perf_loss_budget : 1.0);
    Tracer::Scope span(g_tracer, "opt.optimize_single_cache",
                       api::scheme_id_name(scheme));
    (void)opt::optimize_single_cache(eval, ex.config().grid, to_scheme(scheme),
                                     delay_s, ex.config().search_mode, space);
  }

  void layer_calls(const api::Service& service,
                   const surrogate::SurrogateStore* store,
                   const api::Request& request) {
    switch (request.kind) {
      case api::RequestKind::kEval: {
        const auto& e = request.eval;
        const auto& ex = explorer_for(service, e.node_nm);
        const auto& model = model_for(ex, e.target.level, e.target.size_bytes,
                                      e.organization);
        const tech::DeviceKnobs knobs{e.knobs.vth_v, e.knobs.tox_a};
        {
          Tracer::Scope span(g_tracer, "cachemodel.evaluate_uniform");
          (void)model.evaluate_uniform(knobs);
        }
        std::vector<cachemodel::ComponentKind> kinds(
            cachemodel::kExtendedComponents.begin(),
            cachemodel::kExtendedComponents.begin() +
                static_cast<std::ptrdiff_t>(model.num_components()));
        {
          Tracer::Scope span(g_tracer, "cachemodel.components_batch");
          (void)model.components_batch(kinds, {knobs});
        }
        if (store != nullptr && store->loaded() &&
            e.exactness != api::Exactness::kExact &&
            e.organization.is_default()) {
          const auto size =
              resolve_size(ex, e.target.level, e.target.size_bytes);
          Tracer::Scope span(g_tracer, "surrogate.lookup");
          span.set_tag(store->lookup_eval(e.target.level, size, e.node_nm,
                                          e.knobs)
                           ? "hit"
                           : "miss");
        }
        break;
      }
      case api::RequestKind::kOptimize: {
        const auto& o = request.optimize;
        const auto& ex = explorer_for(service, o.node_nm);
        const auto& model = model_for(ex, o.target.level, o.target.size_bytes,
                                      o.organization);
        optimize_call(ex, model, o.organization, o.power_gating, o.scheme,
                      o.delay.target_ps);
        if (store != nullptr && store->loaded() &&
            o.exactness != api::Exactness::kExact &&
            o.organization.is_default() && !o.power_gating.enabled) {
          const auto size =
              resolve_size(ex, o.target.level, o.target.size_bytes);
          Tracer::Scope span(g_tracer, "surrogate.lookup");
          span.set_tag(store->lookup_optimize(o.target.level, size, o.node_nm,
                                              o.scheme, o.delay.target_ps)
                           ? "hit"
                           : "miss");
        }
        break;
      }
      case api::RequestKind::kSweep: {
        const auto& s = request.sweep;
        const auto& ex = explorer_for(service, s.node_nm);
        if (s.kind == api::SweepKind::kSchemes) {
          const auto& model =
              model_for(ex, api::Level::kL1, s.target.size_bytes, {});
          std::vector<double> targets_ps = s.delay.targets_ps;
          if (targets_ps.empty()) {
            const auto size =
                resolve_size(ex, api::Level::kL1, s.target.size_bytes);
            for (const double t : ex.delay_ladder(size, s.ladder_steps)) {
              targets_ps.push_back(units::seconds_to_ps(t));
            }
          }
          for (const double t : targets_ps) {
            for (const auto scheme : {api::SchemeId::kI, api::SchemeId::kII,
                                      api::SchemeId::kIII}) {
              optimize_call(ex, model, {}, {}, scheme, t);
            }
          }
        } else if (s.kind == api::SweepKind::kL1Sizes) {
          const double amat_s = s.delay.target_ps > 0.0
                                    ? units::ps_to_seconds(s.delay.target_ps)
                                    : ex.l2_squeeze_target_s(1.25);
          Tracer::Scope span(g_tracer, "explorer.l1_size_sweep");
          (void)ex.l1_size_sweep(amat_s);
        } else {
          const double amat_s = s.delay.target_ps > 0.0
                                    ? units::ps_to_seconds(s.delay.target_ps)
                                    : ex.l2_squeeze_target_s();
          Tracer::Scope span(g_tracer, "explorer.l2_size_sweep",
                             api::scheme_id_name(s.l2_scheme));
          (void)ex.l2_size_sweep(to_scheme(s.l2_scheme), amat_s);
        }
        break;
      }
      case api::RequestKind::kTupleMenu: {
        const auto& m = request.tuple_menu;
        const auto& ex = service.explorer();
        const auto system = ex.default_system();
        const opt::TupleMenuSolver solver(system, ex.config().grid);
        const opt::MenuSpec spec{m.num_tox, m.num_vth};
        std::vector<double> targets_s;
        for (const double ps : m.delay.targets_ps) {
          targets_s.push_back(units::ps_to_seconds(ps));
        }
        if (targets_s.empty()) targets_s = ex.config().amat_targets_s();
        const std::string shape =
            std::to_string(m.num_tox) + "x" + std::to_string(m.num_vth);
        for (const double t : targets_s) {
          Tracer::Scope span(g_tracer, "opt.tuple_menu.best_at", shape);
          (void)solver.best_at(spec, t);
        }
        break;
      }
      case api::RequestKind::kCapabilities:
        break;
    }
  }

  static int connect_unix(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) die("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      die("cannot connect to " + path);
    }
    return fd;
  }

  static void send_all(int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) die("send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  static std::string read_line(int fd, std::string& buffer) {
    while (true) {
      const auto pos = buffer.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer.substr(0, pos);
        buffer.erase(0, pos + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) die("server closed the connection");
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

  Options options_;
  std::vector<std::string> lines_;
  int services_created_ = 0;
  std::vector<std::string> responses_;
  std::map<int, std::unique_ptr<core::Explorer>> node_explorers_;
  std::size_t memo_entries_ = 0;
  std::size_t mismatched_ = 0;
  double batch_wall_s_ = 0.0;
  double batch_serve_total_s_ = 0.0;
  double batch_serve_max_s_ = 0.0;
  int batch_threads_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--lines") options.lines_path = value;
    else if (key == "--spans") options.spans_path = value;
    else if (key == "--warm") options.warm = std::stoul(value);
    else if (key == "--threads") options.threads = std::stoi(value);
    else if (key == "--surrogate-dir") options.surrogate_dir = value;
    else if (key == "--cache-root") options.cache_root = value;
    else if (key == "--socket") options.socket_path = value;
    else die("unknown flag " + key);
  }
  if (options.lines_path.empty() || options.spans_path.empty()) {
    die("usage: nc_trace --lines FILE --spans FILE [--warm N] [--threads N] "
        "[--surrogate-dir DIR] [--cache-root DIR] [--socket PATH]");
  }
  if (options.threads > 0) par::set_default_threads(options.threads);

  std::vector<std::string> lines;
  {
    std::ifstream in(options.lines_path);
    if (!in) die("cannot read " + options.lines_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  Replay replay(options, std::move(lines));

  // Untraced and traced request passes alternate so drift in machine load
  // hits both sides of the overhead ratio alike.
  std::vector<double> untraced, traced;
  for (int round = 0; round < 2; ++round) {
    untraced.push_back(replay.request_pass(false));
    traced.push_back(replay.request_pass(true));
  }
  replay.batch_pass();
  replay.server_pass();
  replay.layer_pass();
  g_tracer.write(options.spans_path);
  replay.print_summary(untraced, traced);
  return 0;
}
