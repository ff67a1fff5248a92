#include "core/explorer.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.h"
#include "util/metrics.h"
#include "util/numeric_guard.h"
#include "util/trace_span.h"

namespace nanocache::core {

using cachemodel::CacheModel;
using cachemodel::extended_organization;
using cachemodel::l1_organization;
using cachemodel::l2_organization;
using opt::Scheme;

Explorer::Explorer(ExperimentConfig config) : config_(std::move(config)) {
  config_.validate();
}

namespace {

/// The map's entry for `key`, built by `build()` outside `mutex` on a
/// miss.  Racing builders of one key each build; the first insert wins and
/// every caller gets the map's instance.
template <typename Map, typename Build>
const typename Map::mapped_type::element_type& find_or_build(
    std::mutex& mutex, Map& map, const typename Map::key_type& key,
    Build&& build) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = map.find(key);
    if (it != map.end()) return *it->second;
  }
  auto built = build();
  std::lock_guard<std::mutex> lock(mutex);
  return *map.emplace(key, std::move(built)).first->second;
}

}  // namespace

const CacheModel& Explorer::model(const ModelKey& key) const {
  return find_or_build(cache_mutex_, models_, key, [&] {
    const auto& [variant, is_l2, size_bytes, associativity, banks] = key;
    tech::DeviceModel dev(config_.technology);
    auto org = variant ? extended_organization(size_bytes, is_l2,
                                               associativity, banks, dev)
               : is_l2 ? l2_organization(size_bytes, dev)
                       : l1_organization(size_bytes, dev);
    return std::make_unique<CacheModel>(org, tech::DeviceModel(dev.params()));
  });
}

void Explorer::record_degradation(const cachemodel::CacheModel& model,
                                  const std::string& key,
                                  const std::string& reason) const {
  // The dedup key is derived from the cache organization (not the model's
  // address) so logs and CSV exports are reproducible across processes.
  const std::string dedup_key = model.organization().describe() + ':' + key;
  static auto& degradations =
      metrics::Registry::instance().counter("explorer.degradation_events");
  degradations.add(1);
  std::lock_guard<std::mutex> lock(degradation_mutex_);
  if (!degradation_keys_.insert(dedup_key).second) return;
  degradation_log_.push_back(
      DegradationEvent{model.organization().describe(), reason});
}

opt::ComponentEvaluator Explorer::evaluator(
    const cachemodel::CacheModel& model) const {
  if (!config_.use_fitted_models) {
    return opt::structural_evaluator(model);
  }
  const cachemodel::FittedCacheModel& fits =
      find_or_build(cache_mutex_, fits_, &model, [&] {
        return std::make_unique<cachemodel::FittedCacheModel>(
            cachemodel::FittedCacheModel::fit(model));
      });
  const bool strict =
      config_.degradation_policy == DegradationPolicy::kStrict;

  // Whole-model degradation: a poorly-conditioned fit is unusable at every
  // knob point, so the cache drops to the structural path outright.
  if (fits.worst_r2() < config_.fitted_r2_floor) {
    std::ostringstream os;
    os << "fitted closed forms rejected: worst R^2 " << fits.worst_r2()
       << " below floor " << config_.fitted_r2_floor;
    if (strict) {
      throw Error(ErrorCategory::kNumericDomain,
                  os.str() + " (strict degradation policy)");
    }
    record_degradation(model, "r2-floor", os.str() + "; structural model used");
    return opt::structural_evaluator(model);
  }

  // Per-evaluation degradation: knobs outside the characterization
  // rectangle would extrapolate the exponentials — answer from the
  // structural model instead (or throw under the strict policy).  The
  // returned callable may be invoked concurrently (batch workers and
  // served connections share the Explorer): evaluations are pure const
  // and record_degradation is thread-safe.
  const cachemodel::CacheModel* structural = &model;
  const cachemodel::FittedCacheModel* f = &fits;
  return [this, structural, f, strict](cachemodel::ComponentKind kind,
                                       const tech::DeviceKnobs& knobs) {
    num::ensure_finite(knobs.vth_v, "evaluator knob Vth");
    num::ensure_finite(knobs.tox_a, "evaluator knob Tox");
    if (!f->in_domain(knobs)) {
      std::ostringstream os;
      os << "knobs outside fitted domain (Vth=" << knobs.vth_v
         << " V, Tox=" << knobs.tox_a << " A, domain "
         << f->domain().describe() << ")";
      if (strict) {
        throw Error(ErrorCategory::kNumericDomain,
                    os.str() + " (strict degradation policy)");
      }
      record_degradation(*structural, "out-of-domain",
                         os.str() + "; structural value used");
      return structural->component(kind, knobs);
    }
    cachemodel::ComponentMetrics m = structural->component(kind, knobs);
    m.leakage_w = f->component_leakage_w(kind, knobs);
    m.delay_s = f->component_delay_s(kind, knobs);
    return m;
  };
}

energy::MemorySystemModel Explorer::default_system() const {
  energy::MissRates miss;
  miss.l1 = config_.miss_curves.l1(config_.l1_size_bytes);
  miss.l2_local = config_.miss_curves.l2(config_.l2_size_bytes);
  return energy::MemorySystemModel(l1_model(config_.l1_size_bytes),
                                   l2_model(config_.l2_size_bytes), miss,
                                   config_.memory);
}

// --- FIG1 -------------------------------------------------------------------

std::vector<Fig1Series> Explorer::fig1_fixed_knob(
    std::uint64_t cache_size_bytes, int sweep_steps) const {
  metrics::TraceSpan span("explorer.fig1_fixed_knob");
  NC_REQUIRE(sweep_steps >= 2, "sweep needs >= 2 steps");
  const auto& m = l1_model(cache_size_bytes);
  const auto& knobs = m.device().params().knobs;

  auto sweep = [&](bool vth_fixed, double fixed_value) {
    Fig1Series s;
    s.vth_fixed = vth_fixed;
    s.fixed_value = fixed_value;
    std::ostringstream label;
    if (vth_fixed) {
      label << "Vth=" << static_cast<int>(fixed_value * 1000 + 0.5) << "mV";
    } else {
      label << "Tox=" << static_cast<int>(fixed_value + 0.5) << "A";
    }
    s.label = label.str();
    for (int i = 0; i < sweep_steps; ++i) {
      const double t = static_cast<double>(i) / (sweep_steps - 1);
      tech::DeviceKnobs k;
      if (vth_fixed) {
        k.vth_v = fixed_value;
        k.tox_a = knobs.tox_min_a + t * (knobs.tox_max_a - knobs.tox_min_a);
      } else {
        k.tox_a = fixed_value;
        k.vth_v = knobs.vth_min_v + t * (knobs.vth_max_v - knobs.vth_min_v);
      }
      const auto r = m.evaluate_uniform(k);
      s.points.push_back(Fig1Point{vth_fixed ? k.tox_a : k.vth_v,
                                   r.access_time_s, r.leakage_w});
    }
    return s;
  };

  // The paper's four curves: Tox fixed at the range ends (Vth swept), and
  // Vth fixed at 0.2 / 0.4 V (Tox swept).
  const std::pair<bool, double> curves[] = {{false, knobs.tox_min_a},
                                            {false, knobs.tox_max_a},
                                            {true, 0.2},
                                            {true, 0.4}};
  std::vector<Fig1Series> series;
  for (const auto& [vth_fixed, value] : curves) {
    series.push_back(sweep(vth_fixed, value));
  }
  return series;
}

// --- TAB-S4 -----------------------------------------------------------------

std::vector<SchemeComparisonRow> Explorer::scheme_comparison(
    std::uint64_t cache_size_bytes,
    const std::vector<double>& delay_targets_s) const {
  metrics::TraceSpan span("explorer.scheme_comparison");
  const auto& m = l1_model(cache_size_bytes);
  const auto eval = evaluator(m);
  std::vector<SchemeComparisonRow> rows;
  for (const double target : delay_targets_s) {
    SchemeComparisonRow row;
    row.delay_target_s = target;
    row.scheme1 =
        opt::optimize_single_cache(eval, config_.grid, Scheme::kPerComponent,
                                   target, config_.search_mode);
    row.scheme2 =
        opt::optimize_single_cache(eval, config_.grid, Scheme::kArrayPeriphery,
                                   target, config_.search_mode);
    row.scheme3 = opt::optimize_single_cache(
        eval, config_.grid, Scheme::kUniform, target, config_.search_mode);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<double> Explorer::delay_ladder(std::uint64_t cache_size_bytes,
                                           int steps) const {
  NC_REQUIRE(steps >= 2, "ladder needs >= 2 steps");
  const auto& m = l1_model(cache_size_bytes);
  const auto eval = evaluator(m);
  const double lo =
      opt::min_access_time(eval, config_.grid, Scheme::kUniform) * 1.001;
  const auto& knobs = m.device().params().knobs;
  const double hi =
      m.evaluate_uniform(tech::DeviceKnobs{knobs.vth_max_v, knobs.tox_max_a})
          .access_time_s;
  std::vector<double> ladder(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    ladder[static_cast<std::size_t>(i)] =
        lo + (hi - lo) * static_cast<double>(i) / (steps - 1);
  }
  return ladder;
}

// --- Section 5 size sweeps ----------------------------------------------------

double Explorer::l2_squeeze_target_s(double headroom_factor,
                                     std::uint64_t reference_l2_bytes) const {
  NC_REQUIRE(headroom_factor >= 1.0, "headroom factor must be >= 1");
  if (reference_l2_bytes == 0) {
    reference_l2_bytes = *std::min_element(config_.l2_size_sweep.begin(),
                                           config_.l2_size_sweep.end());
  }
  const auto& l1 = l1_model(config_.l1_size_bytes);
  const double t_l1 =
      l1.evaluate_uniform(config_.default_knobs).access_time_s;
  const double ml1 = config_.miss_curves.l1(config_.l1_size_bytes);
  const double ml2 = config_.miss_curves.l2(reference_l2_bytes);
  const auto& l2 = l2_model(reference_l2_bytes);
  const double t_l2_fast = opt::min_access_time(evaluator(l2), config_.grid,
                                                opt::Scheme::kUniform);
  return t_l1 + ml1 * (headroom_factor * t_l2_fast +
                       ml2 * config_.memory.access_latency_s);
}

std::vector<SizeSweepRow> Explorer::l2_size_sweep(Scheme scheme,
                                                  double amat_target_s) const {
  metrics::TraceSpan span("explorer.l2_size_sweep");
  const auto& l1 = l1_model(config_.l1_size_bytes);
  const auto l1_metrics = l1.evaluate_uniform(config_.default_knobs);
  const double ml1 = config_.miss_curves.l1(config_.l1_size_bytes);
  const double tmem = config_.memory.access_latency_s;

  // Every size's evaluator first, so whole-model (r2-floor) degradation
  // events are logged ahead of the sweep's per-evaluation ones.
  const auto& sizes = config_.l2_size_sweep;
  std::vector<opt::ComponentEvaluator> evals;
  evals.reserve(sizes.size());
  for (std::uint64_t size : sizes) evals.push_back(evaluator(l2_model(size)));

  std::vector<SizeSweepRow> rows;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    SizeSweepRow& row = rows.emplace_back();
    row.size_bytes = sizes[i];
    const double ml2 = config_.miss_curves.l2(sizes[i]);
    row.miss_rate = ml2;
    // AMAT = tL1 + mL1*(tL2 + mL2*tmem)  =>  tL2 budget.
    const double budget =
        (amat_target_s - l1_metrics.access_time_s) / ml1 - ml2 * tmem;
    if (budget <= 0.0) {
      row.infeasible_reason =
          "AMAT target leaves no L2 time budget at this size";
      continue;
    }
    auto best = opt::optimize_single_cache(evals[i], config_.grid, scheme,
                                           budget, config_.search_mode);
    if (!best) {
      row.infeasible_reason = best.why().describe();
      continue;
    }
    row.feasible = true;
    row.result = *best;
    row.level_leakage_w = best->leakage_w;
    row.total_leakage_w = best->leakage_w + l1_metrics.leakage_w;
    row.amat_s = l1_metrics.access_time_s +
                 ml1 * (best->access_time_s + ml2 * tmem);
  }
  return rows;
}

std::vector<SizeSweepRow> Explorer::l1_size_sweep(double amat_target_s) const {
  metrics::TraceSpan span("explorer.l1_size_sweep");
  // Fix the L2: scheme-II optimum for the default configuration.
  const double tmem = config_.memory.access_latency_s;
  const double ml2 = config_.miss_curves.l2(config_.l2_size_bytes);
  const auto& l2 = l2_model(config_.l2_size_bytes);
  const auto l2_eval = evaluator(l2);
  const double ml1_default = config_.miss_curves.l1(config_.l1_size_bytes);
  const auto& l1_default = l1_model(config_.l1_size_bytes);
  const double l1_time_default =
      l1_default.evaluate_uniform(config_.default_knobs).access_time_s;
  const double l2_budget =
      (amat_target_s - l1_time_default) / ml1_default - ml2 * tmem;
  auto l2_fixed =
      opt::optimize_single_cache(l2_eval, config_.grid,
                                 Scheme::kArrayPeriphery, l2_budget,
                                 config_.search_mode);
  NC_REQUIRE_FEASIBLE(l2_fixed.has_value(),
                      "AMAT target infeasible for the fixed L2 configuration: " +
                          (l2_fixed ? std::string() : l2_fixed.why().describe()));

  // Evaluators first, as in l2_size_sweep.
  const auto& sizes = config_.l1_size_sweep;
  std::vector<opt::ComponentEvaluator> evals;
  evals.reserve(sizes.size());
  for (std::uint64_t size : sizes) evals.push_back(evaluator(l1_model(size)));

  std::vector<SizeSweepRow> rows;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    SizeSweepRow& row = rows.emplace_back();
    row.size_bytes = sizes[i];
    const double ml1 = config_.miss_curves.l1(sizes[i]);
    row.miss_rate = ml1;
    const double budget =
        amat_target_s - ml1 * (l2_fixed->access_time_s + ml2 * tmem);
    if (budget <= 0.0) {
      row.infeasible_reason =
          "AMAT target leaves no L1 time budget at this size";
      continue;
    }
    auto best =
        opt::optimize_single_cache(evals[i], config_.grid,
                                   Scheme::kArrayPeriphery, budget,
                                   config_.search_mode);
    if (!best) {
      row.infeasible_reason = best.why().describe();
      continue;
    }
    row.feasible = true;
    row.result = *best;
    row.level_leakage_w = best->leakage_w;
    row.total_leakage_w = best->leakage_w + l2_fixed->leakage_w;
    row.amat_s = best->access_time_s +
                 ml1 * (l2_fixed->access_time_s + ml2 * tmem);
  }
  return rows;
}

std::vector<Explorer::JointSizingRow> Explorer::joint_size_study(
    double amat_target_s) const {
  metrics::TraceSpan span("explorer.joint_size_study");
  NC_REQUIRE(amat_target_s > 0.0, "AMAT target must be positive");
  const double tmem = config_.memory.access_latency_s;
  const auto& l1_sizes = config_.l1_size_sweep;
  const auto& l2_sizes = config_.l2_size_sweep;

  // Evaluators first (as in l2_size_sweep), then one scheme-II front per
  // size.
  std::vector<opt::ComponentEvaluator> l1_evals, l2_evals;
  for (std::uint64_t s : l1_sizes) l1_evals.push_back(evaluator(l1_model(s)));
  for (std::uint64_t s : l2_sizes) l2_evals.push_back(evaluator(l2_model(s)));
  const auto fronts = [&](const std::vector<opt::ComponentEvaluator>& evals) {
    std::vector<std::vector<opt::SchemeResult>> out;
    for (const auto& eval : evals) {
      out.push_back(opt::scheme_frontier(eval, config_.grid,
                                         opt::Scheme::kArrayPeriphery));
    }
    return out;
  };
  const auto l1_fronts = fronts(l1_evals);
  const auto l2_fronts = fronts(l2_evals);

  // Rows are L1-major.
  std::vector<JointSizingRow> rows;
  for (std::size_t idx = 0; idx < l1_sizes.size() * l2_sizes.size(); ++idx) {
    const std::size_t i1 = idx / l2_sizes.size();
    const std::size_t i2 = idx % l2_sizes.size();
    const double ml1 = config_.miss_curves.l1(l1_sizes[i1]);
    const double ml2 = config_.miss_curves.l2(l2_sizes[i2]);
    JointSizingRow& row = rows.emplace_back();
    row.l1_size_bytes = l1_sizes[i1];
    row.l2_size_bytes = l2_sizes[i2];

    // Both fronts are sorted by delay ascending / leakage descending.
    // Sweep L1 points; for each, the L2 budget follows from the AMAT
    // identity, and the best L2 choice is the slowest front point that
    // still fits (leakage falls with delay along the front).
    for (const auto& p1 : l1_fronts[i1]) {
      const double l2_budget =
          (amat_target_s - p1.access_time_s) / ml1 - ml2 * tmem;
      if (l2_budget <= 0.0) continue;
      const opt::SchemeResult* best_l2 = nullptr;
      for (const auto& p2 : l2_fronts[i2]) {
        if (p2.access_time_s > l2_budget) break;
        best_l2 = &p2;  // later points are slower and less leaky
      }
      if (best_l2 == nullptr) continue;
      const double total = p1.leakage_w + best_l2->leakage_w;
      if (!row.feasible || total < row.total_leakage_w) {
        row.feasible = true;
        row.total_leakage_w = total;
        row.l1 = p1;
        row.l2 = *best_l2;
        row.amat_s = p1.access_time_s +
                     ml1 * (best_l2->access_time_s + ml2 * tmem);
      }
    }
  }
  return rows;
}

// --- FIG2 -------------------------------------------------------------------

std::vector<opt::MenuSpec> Explorer::default_fig2_specs() {
  return {{2, 2}, {2, 3}, {3, 2}, {2, 1}, {1, 2}};
}

std::string Explorer::menu_label(const opt::MenuSpec& spec) {
  std::ostringstream os;
  os << spec.num_tox << " Tox + " << spec.num_vth << " Vth";
  return os.str();
}

std::vector<Fig2Series> Explorer::fig2_tuple_frontiers(
    const std::vector<opt::MenuSpec>& specs) const {
  metrics::TraceSpan span("explorer.fig2_tuple_frontiers");
  const auto system = default_system();
  const opt::TupleMenuSolver solver(system, config_.grid);
  // Specs run one after another; each frontier fans its menu passes out
  // over the pool.
  std::vector<Fig2Series> out;
  for (const auto& spec : specs) {
    Fig2Series s;
    s.spec = spec;
    s.label = menu_label(spec);
    s.points = solver.frontier(spec);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace nanocache::core
