// High-level exploration API: one entry point per paper experiment.
// Benches and examples call these and print; tests assert on the returned
// structures.  The Explorer caches constructed cache models (they are
// immutable once built).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/config.h"
#include "opt/outcome.h"
#include "opt/schemes.h"
#include "opt/tuple_menu.h"

namespace nanocache::core {

/// One point of a Figure-1 style curve.
struct Fig1Point {
  double swept_value = 0.0;  ///< the free knob's value at this point
  double access_time_s = 0.0;
  double leakage_w = 0.0;
};

struct Fig1Series {
  std::string label;        ///< e.g. "Tox=10A" (Vth swept)
  bool vth_fixed = false;   ///< true when Vth is held and Tox swept
  double fixed_value = 0.0;
  std::vector<Fig1Point> points;
};

/// One row of the Section 4 scheme comparison.  Infeasible cells carry the
/// violated constraint instead of being silently empty.
struct SchemeComparisonRow {
  double delay_target_s = 0.0;
  opt::OptOutcome<opt::SchemeResult> scheme1;
  opt::OptOutcome<opt::SchemeResult> scheme2;
  opt::OptOutcome<opt::SchemeResult> scheme3;
};

/// One recorded fitted->structural degradation (see
/// DegradationPolicy::kFallbackToStructural).
struct DegradationEvent {
  std::string model;   ///< organization description of the affected cache
  std::string reason;  ///< why the fitted path was abandoned
};

/// One row of the Section 5 L2 (or L1) size sweeps.
struct SizeSweepRow {
  std::uint64_t size_bytes = 0;
  bool feasible = false;
  double miss_rate = 0.0;      ///< local miss rate of the swept level
  double amat_s = 0.0;         ///< achieved AMAT
  double level_leakage_w = 0.0;   ///< leakage of the swept level
  double total_leakage_w = 0.0;   ///< both cache levels
  opt::SchemeResult result;    ///< swept level's optimized assignment
  /// Why the row is infeasible (empty when feasible): the violated
  /// constraint, so a sweep never emits an unexplained hole.
  std::string infeasible_reason;
};

/// One Figure-2 series: energy/AMAT frontier for a menu cardinality.
struct Fig2Series {
  opt::MenuSpec spec;
  std::string label;  ///< e.g. "2 Tox + 3 Vth"
  std::vector<opt::SystemDesignPoint> points;
};

class Explorer {
 public:
  explicit Explorer(ExperimentConfig config = {});

  const ExperimentConfig& config() const { return config_; }

  /// FIG1: leakage vs access time for a single cache, holding one knob and
  /// sweeping the other (uniform assignment, as in the paper's Figure 1).
  /// Default curves: Tox fixed at 10/14 A, Vth fixed at 0.2/0.4 V.
  std::vector<Fig1Series> fig1_fixed_knob(std::uint64_t cache_size_bytes,
                                          int sweep_steps = 13) const;

  /// TAB-S4: scheme I/II/III optimal leakage across delay targets.
  std::vector<SchemeComparisonRow> scheme_comparison(
      std::uint64_t cache_size_bytes,
      const std::vector<double>& delay_targets_s) const;

  /// Convenience delay-target ladder spanning the feasible range of the
  /// given cache (from fastest scheme-I point to slowest useful target).
  std::vector<double> delay_ladder(std::uint64_t cache_size_bytes,
                                   int steps = 7) const;

  /// TAB-L2A/L2B: sweep L2 size at fixed default-knob L1; optimize the L2
  /// assignment under `scheme` to meet the AMAT target.
  std::vector<SizeSweepRow> l2_size_sweep(opt::Scheme scheme,
                                          double amat_target_s) const;

  /// The "squeeze" AMAT: a target that forces the reference L2 size
  /// (default: the smallest in the sweep) to run within `headroom_factor`
  /// of its fastest achievable access time, with L1 at default knobs.
  /// Targets near this value put the size sweep in the regime Section 5
  /// studies: small L2s must burn leakage on fast knobs while mid sizes
  /// coast on conservative ones and the largest run out of slack again.
  double l2_squeeze_target_s(double headroom_factor = 1.15,
                             std::uint64_t reference_l2_bytes = 0) const;

  /// TAB-L1: sweep L1 size at fixed L2 (scheme II optimized once); optimize
  /// each L1 under scheme II to meet the AMAT target.
  std::vector<SizeSweepRow> l1_size_sweep(double amat_target_s) const;

  /// EXT-JOINT: joint L1 x L2 sizing — for every (L1 size, L2 size) pair in
  /// the configured sweeps, co-optimize both levels' scheme-II assignments
  /// under the AMAT target and report the minimum total leakage.  The
  /// paper optimizes the levels one at a time (Section 5); this extension
  /// closes the loop and shows where the joint optimum sits.
  struct JointSizingRow {
    std::uint64_t l1_size_bytes = 0;
    std::uint64_t l2_size_bytes = 0;
    bool feasible = false;
    double total_leakage_w = 0.0;
    double amat_s = 0.0;
    opt::SchemeResult l1;
    opt::SchemeResult l2;
  };
  std::vector<JointSizingRow> joint_size_study(double amat_target_s) const;

  /// FIG2: energy/AMAT frontiers for the paper's five menu cardinalities.
  std::vector<Fig2Series> fig2_tuple_frontiers(
      const std::vector<opt::MenuSpec>& specs = default_fig2_specs()) const;

  static std::vector<opt::MenuSpec> default_fig2_specs();
  static std::string menu_label(const opt::MenuSpec& spec);

  /// Model access (lazily constructed, cached).
  const cachemodel::CacheModel& l1_model(std::uint64_t size_bytes) const {
    return model({false, false, size_bytes, 0, 0});
  }
  const cachemodel::CacheModel& l2_model(std::uint64_t size_bytes) const {
    return model({false, true, size_bytes, 0, 0});
  }

  /// Design-space variant: a split-tag organization with explicit
  /// associativity (1/2/4/8, or -1 for fully associative) and bank count.
  /// Variant models always use the structural evaluator — the fitted
  /// closed forms are calibrated on the paper's fixed organization only.
  const cachemodel::CacheModel& variant_model(std::uint64_t size_bytes,
                                              bool is_l2, int associativity,
                                              std::uint32_t banks) const {
    return model({true, is_l2, size_bytes, associativity, banks});
  }

  /// The component evaluator the experiments optimize over: structural by
  /// default, or the cached per-cache fitted closed forms when
  /// `config().use_fitted_models` is set.
  ///
  /// The fitted path degrades gracefully per config().degradation_policy:
  /// a fit whose worst R^2 is below config().fitted_r2_floor, or an
  /// evaluation outside the fitted (Vth, Tox) domain, falls back to the
  /// structural model and records a DegradationEvent (or throws
  /// kNumericDomain under the strict policy) — garbage extrapolations
  /// never propagate silently.
  opt::ComponentEvaluator evaluator(const cachemodel::CacheModel& model) const;

  /// Fitted->structural fallbacks recorded so far (deduplicated per cache
  /// and cause).  Empty on the pure structural path.
  const std::vector<DegradationEvent>& degradation_events() const {
    return degradation_log_;
  }

  /// Memory-system model for the configured default sizes.
  energy::MemorySystemModel default_system() const;

 private:
  /// (variant, is_l2, size, associativity, banks); l1_model / l2_model
  /// use variant false with zero associativity and banks.
  using ModelKey = std::tuple<bool, bool, std::uint64_t, int, std::uint32_t>;
  const cachemodel::CacheModel& model(const ModelKey& key) const;

  /// Record one degradation event, deduplicated by `key` so a sweep that
  /// leaves the fitted domain thousands of times logs it once per cause.
  /// Thread-safe: batch workers and served connections share the Explorer.
  void record_degradation(const cachemodel::CacheModel& model,
                          const std::string& key,
                          const std::string& reason) const;

  ExperimentConfig config_;
  /// Guards degradation_log_/degradation_keys_.
  mutable std::mutex degradation_mutex_;
  mutable std::vector<DegradationEvent> degradation_log_;
  mutable std::set<std::string> degradation_keys_;
  /// Guards lookups and inserts of the lazily-built model/fit maps; builds
  /// run outside it.  Returned references stay valid because node-based
  /// map insertion never relocates existing entries.
  mutable std::mutex cache_mutex_;
  /// Fixed organizations and design-space variants, keyed by ModelKey.
  mutable std::map<ModelKey, std::unique_ptr<cachemodel::CacheModel>> models_;
  /// Fitted closed forms per cache model (only populated when
  /// use_fitted_models is set).
  mutable std::map<const cachemodel::CacheModel*,
                   std::unique_ptr<cachemodel::FittedCacheModel>>
      fits_;
};

}  // namespace nanocache::core
