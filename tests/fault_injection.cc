#include "fault_injection.h"

#include <cmath>
#include <limits>
#include <vector>

#include "api/disk_cache.h"
#include "cachemodel/cache_model.h"
#include "cachemodel/fitted_cache.h"
#include "cachemodel/organization.h"
#include "core/explorer.h"
#include "energy/memory_system.h"
#include "opt/continuous.h"
#include "opt/grid.h"
#include "opt/options.h"
#include "opt/outcome.h"
#include "opt/schemes.h"
#include "server/client.h"
#include "server/listener.h"
#include "sim/missmodel.h"
#include "tech/characterize.h"
#include "tech/fitted.h"
#include "tech/params.h"
#include "util/numeric_guard.h"

namespace nanocache::testing {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- shared fixtures (built once; the registry runs many faults) ------------

const cachemodel::CacheModel& small_cache() {
  static tech::DeviceModel dev(tech::bptm65());
  static cachemodel::CacheModel model(cachemodel::l1_organization(4096, dev),
                                      tech::DeviceModel(dev.params()));
  return model;
}

const cachemodel::CacheModel& small_l2() {
  static tech::DeviceModel dev(tech::bptm65());
  static cachemodel::CacheModel model(
      cachemodel::l2_organization(256 * 1024, dev),
      tech::DeviceModel(dev.params()));
  return model;
}

const cachemodel::FittedCacheModel& small_fits() {
  static cachemodel::FittedCacheModel fits =
      cachemodel::FittedCacheModel::fit(small_cache());
  return fits;
}

/// Healthy characterization samples a leakage/delay fit accepts; faults
/// corrupt copies of these.
std::vector<tech::KnobSample> good_samples() {
  std::vector<tech::KnobSample> s;
  for (double vth : {0.20, 0.30, 0.40, 0.50}) {
    for (double tox : {10.0, 12.0, 14.0}) {
      s.push_back({tech::DeviceKnobs{vth, tox},
                   std::exp(-6.0 * vth) + std::exp(-1.0 * tox)});
    }
  }
  return s;
}

void add(std::vector<FaultCase>& cases, std::string name,
         ErrorCategory expected, std::function<void()> inject) {
  cases.push_back(FaultCase{std::move(name), expected, std::move(inject)});
}

}  // namespace

FaultOutcome run_fault(const FaultCase& fault) {
  FaultOutcome out;
  out.name = fault.name;
  out.expected = fault.expected;
  try {
    fault.inject();
    out.detail = "no exception thrown";
  } catch (const Error& e) {
    out.actual = e.category();
    if (out.actual == out.expected) {
      out.ok = true;
      out.detail = e.what();
    } else {
      out.detail = std::string("wrong category: expected ") +
                   category_name(out.expected) + ", got " + e.what();
    }
  } catch (const std::exception& e) {
    out.detail = std::string("escaped as untyped std::exception: ") + e.what();
  } catch (...) {
    out.detail = "escaped as a non-standard exception";
  }
  return out;
}

std::vector<FaultOutcome> run_all(const std::vector<FaultCase>& cases) {
  std::vector<FaultOutcome> outcomes;
  outcomes.reserve(cases.size());
  for (const auto& c : cases) outcomes.push_back(run_fault(c));
  return outcomes;
}

std::vector<Mutant> mutation_corpus(const std::string& bytes,
                                    std::size_t stride) {
  NC_REQUIRE(stride > 0, "mutation stride must be positive");
  std::vector<Mutant> corpus;
  for (std::size_t at = 0; at < bytes.size(); at += stride) {
    corpus.push_back({"truncate@" + std::to_string(at), bytes.substr(0, at)});
  }
  for (std::size_t at = stride / 2; at < bytes.size(); at += stride) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ (1 << (at % 8)));
    corpus.push_back({"flip@" + std::to_string(at), std::move(flipped)});
  }
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < bytes.size();) {
    const std::size_t end = bytes.find('\n', start);
    const std::size_t stop = end == std::string::npos ? bytes.size() : end;
    lines.push_back(bytes.substr(start, stop - start));
    start = stop + 1;
  }
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    std::string spliced;
    for (std::size_t j = 0; j < lines.size(); ++j) {
      if (j == i + 1) continue;  // its tail went into line i
      spliced += j == i ? lines[i].substr(0, lines[i].size() / 2) +
                              lines[i + 1].substr(lines[i + 1].size() / 2)
                        : lines[j];
      spliced += '\n';
    }
    corpus.push_back({"splice@" + std::to_string(i), std::move(spliced)});
  }
  return corpus;
}

std::vector<FaultCase> build_standard_faults() {
  using EC = ErrorCategory;
  std::vector<FaultCase> cases;

  // --- numeric guards ---------------------------------------------------
  add(cases, "guard-positive-rejects-negative", EC::kNumericDomain,
      [] { num::ensure_positive(-1.0, "test quantity"); });
  add(cases, "guard-finite-rejects-nan", EC::kNumericDomain,
      [] { num::ensure_finite(kNaN, "test quantity"); });

  // --- model fitting ----------------------------------------------------
  add(cases, "fit-leakage-nan-vth", EC::kNumericDomain, [] {
    auto s = good_samples();
    s[3].knobs.vth_v = kNaN;
    tech::FittedLeakageModel::fit(s);
  });
  add(cases, "fit-leakage-inf-value", EC::kNumericDomain, [] {
    auto s = good_samples();
    s[5].value = kInf;
    tech::FittedLeakageModel::fit(s);
  });
  add(cases, "fit-delay-nan-tox", EC::kNumericDomain, [] {
    auto s = good_samples();
    s[0].knobs.tox_a = kNaN;
    tech::FittedDelayModel::fit(s);
  });
  add(cases, "fit-too-few-samples", EC::kConfig, [] {
    auto s = good_samples();
    s.resize(3);
    tech::FittedLeakageModel::fit(s);
  });
  add(cases, "fit-domain-no-samples", EC::kConfig,
      [] { tech::FitDomain::from_samples({}); });
  add(cases, "fit-domain-nan-knob", EC::kNumericDomain, [] {
    auto s = good_samples();
    s[1].knobs.tox_a = kNaN;
    tech::FitDomain::from_samples(s);
  });

  // --- cache organization -----------------------------------------------
  add(cases, "org-zero-size", EC::kConfig, [] {
    cachemodel::CacheOrganization org;
    org.size_bytes = 0;
    org.validate();
  });
  add(cases, "org-zero-block", EC::kConfig, [] {
    cachemodel::CacheOrganization org;
    org.block_bytes = 0;
    org.validate();
  });
  add(cases, "org-zero-associativity", EC::kConfig, [] {
    cachemodel::CacheOrganization org;
    org.associativity = 0;
    org.validate();
  });
  add(cases, "org-partition-not-power-of-two", EC::kConfig, [] {
    cachemodel::CacheOrganization org;
    org.ndwl = 3;
    org.validate();
  });
  add(cases, "org-invalid-bank-count", EC::kConfig, [] {
    tech::DeviceModel dev(tech::bptm65());
    cachemodel::extended_organization(16 * 1024, false, 2, 3, dev);
  });
  add(cases, "org-extended-bad-associativity", EC::kConfig, [] {
    tech::DeviceModel dev(tech::bptm65());
    cachemodel::extended_organization(16 * 1024, false, 16, 1, dev);
  });

  // --- technology parameters --------------------------------------------
  add(cases, "tech-negative-vdd", EC::kConfig, [] {
    auto p = tech::bptm65();
    p.vdd_v = -1.0;
    p.validate();
  });
  add(cases, "tech-inverted-vth-range", EC::kConfig, [] {
    auto p = tech::bptm65();
    p.knobs.vth_min_v = 0.5;
    p.knobs.vth_max_v = 0.2;
    p.validate();
  });
  add(cases, "tech-temperature-out-of-range", EC::kConfig, [] {
    auto p = tech::bptm65();
    p.temperature_k = 1000.0;
    p.validate();
  });
  add(cases, "tech-unknown-node", EC::kConfig,
      [] { tech::node_params(17); });

  // --- memory-system model ----------------------------------------------
  add(cases, "system-nan-miss-rate", EC::kNumericDomain, [] {
    energy::MissRates miss;
    miss.l1 = kNaN;
    energy::MemorySystemModel(small_cache(), small_l2(), miss);
  });
  add(cases, "system-miss-rate-above-one", EC::kConfig, [] {
    energy::MissRates miss;
    miss.l1 = 1.5;
    energy::MemorySystemModel(small_cache(), small_l2(), miss);
  });
  add(cases, "system-nan-memory-latency", EC::kNumericDomain, [] {
    energy::MainMemoryParams mem;
    mem.access_latency_s = kNaN;
    energy::MemorySystemModel(small_cache(), small_l2(), {}, mem);
  });
  add(cases, "system-negative-memory-energy", EC::kConfig, [] {
    energy::MainMemoryParams mem;
    mem.access_energy_j = -1.0;
    energy::MemorySystemModel(small_cache(), small_l2(), {}, mem);
  });
  add(cases, "system-evaluate-nan-knobs", EC::kNumericDomain, [] {
    const energy::MemorySystemModel system(small_cache(), small_l2(), {});
    system.evaluate(
        cachemodel::ComponentAssignment(tech::DeviceKnobs{kNaN, 12.0}),
        cachemodel::ComponentAssignment(tech::DeviceKnobs{0.35, 12.0}));
  });

  // --- persistence and transport I/O ------------------------------------
  add(cases, "disk-cache-dir-under-a-file", EC::kIo, [] {
    api::DiskCache::open("/dev/null/nanocache_cache", "0123456789abcdef");
  });
  add(cases, "client-connect-missing-unix-socket", EC::kIo, [] {
    server::Client::connect(server::parse_listen_spec(
        "unix:/nonexistent_nanocache_dir/missing.sock"));
  });
  add(cases, "listener-bind-missing-directory", EC::kIo, [] {
    server::Listener::open(server::parse_listen_spec(
        "unix:/nonexistent_nanocache_dir/server.sock"));
  });

  // --- miss models --------------------------------------------------------
  add(cases, "miss-curve-non-monotone", EC::kConfig, [] {
    sim::PowerLawMissModel::fit({4096, 8192, 16384}, {0.05, 0.08, 0.12});
  });
  add(cases, "miss-model-m0-above-one", EC::kConfig,
      [] { sim::PowerLawMissModel(1.5, 4096, 0.5, 0.0); });

  // --- optimizer inputs and infeasible outcomes ---------------------------
  add(cases, "grid-empty-axis", EC::kConfig, [] {
    opt::KnobGrid grid;
    grid.tox_values = {10.0, 12.0};
    grid.validate();
  });
  add(cases, "grid-non-increasing-axis", EC::kConfig, [] {
    opt::KnobGrid grid;
    grid.vth_values = {0.3, 0.2};
    grid.tox_values = {10.0, 12.0};
    grid.validate();
  });
  add(cases, "grid-nan-value", EC::kNumericDomain, [] {
    opt::KnobGrid grid;
    grid.vth_values = {0.2, kNaN};
    grid.tox_values = {10.0, 12.0};
    grid.validate();
  });
  add(cases, "subset-size-zero", EC::kConfig,
      [] { opt::choose_subsets({0.2, 0.3}, 0); });
  add(cases, "optimize-impossible-delay-deref", EC::kInfeasible, [] {
    const auto r = opt::optimize_single_cache(
        opt::structural_evaluator(small_cache()),
        opt::KnobGrid::paper_default(), opt::Scheme::kUniform, 1e-15);
    *r;  // dereferencing an infeasible outcome must throw, not crash
  });
  add(cases, "continuous-impossible-delay-deref", EC::kInfeasible, [] {
    const auto r = opt::optimize_continuous(
        small_fits(), tech::bptm65().knobs, opt::Scheme::kUniform, 1e-15);
    r.value();
  });
  add(cases, "outcome-why-on-feasible", EC::kInternal, [] {
    const opt::OptOutcome<int> feasible(7);
    feasible.why();
  });
  add(cases, "outcome-default-deref", EC::kInfeasible, [] {
    const opt::OptOutcome<opt::SchemeResult> unsolved;
    *unsolved;
  });

  // --- experiment configuration -------------------------------------------
  add(cases, "config-l1-too-small", EC::kConfig, [] {
    core::ExperimentConfig cfg;
    cfg.l1_size_bytes = 16;
    core::Explorer e(cfg);
  });
  add(cases, "config-l2-not-larger-than-l1", EC::kConfig, [] {
    core::ExperimentConfig cfg;
    cfg.l2_size_bytes = cfg.l1_size_bytes;
    core::Explorer e(cfg);
  });
  add(cases, "config-r2-floor-above-one", EC::kConfig, [] {
    core::ExperimentConfig cfg;
    cfg.fitted_r2_floor = 1.5;
    core::Explorer e(cfg);
  });
  add(cases, "fig1-single-step-sweep", EC::kConfig, [] {
    static core::Explorer explorer;
    explorer.fig1_fixed_knob(16 * 1024, 1);
  });

  return cases;
}

}  // namespace nanocache::testing
