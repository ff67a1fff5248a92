// Per-component option tables: each (Vth, Tox) grid pair evaluated to the
// component's delay/leakage/dynamic-energy.  Both the structural model and
// the paper's fitted closed forms plug in through the same evaluator
// signature, so every optimizer runs on either.
#pragma once

#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "cachemodel/cache_model.h"
#include "cachemodel/fitted_cache.h"
#include "opt/grid.h"

namespace nanocache::opt {

/// Evaluator shared by all optimizers: a scalar (kind, knobs) -> metrics
/// callable, optionally paired with a batched kernel that evaluates many
/// kinds at many knob pairs in one call (CacheModel::components_batch).
/// The batch hook must return values bitwise equal to the scalar path —
/// the option-table builders use it when present and fall back to the
/// scalar callable otherwise, so the two must be interchangeable.
class ComponentEvaluator {
 public:
  using Scalar = std::function<cachemodel::ComponentMetrics(
      cachemodel::ComponentKind, const tech::DeviceKnobs&)>;
  using Batch =
      std::function<std::vector<std::vector<cachemodel::ComponentMetrics>>(
          const std::vector<cachemodel::ComponentKind>&,
          const std::vector<tech::DeviceKnobs>&)>;

  ComponentEvaluator() = default;

  /// Implicit from any scalar callable, so existing lambdas (including the
  /// explorer's degradation wrappers) keep working unchanged.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ComponentEvaluator> &&
                std::is_constructible_v<Scalar, F&&>>>
  ComponentEvaluator(F&& scalar)  // NOLINT(google-explicit-constructor)
      : scalar_(std::forward<F>(scalar)) {}

  ComponentEvaluator(Scalar scalar, Batch batch)
      : scalar_(std::move(scalar)), batch_(std::move(batch)) {}

  cachemodel::ComponentMetrics operator()(
      cachemodel::ComponentKind kind, const tech::DeviceKnobs& knobs) const {
    return scalar_(kind, knobs);
  }

  /// Empty when this evaluator has no batched kernel.
  const Batch& batch() const { return batch_; }

  explicit operator bool() const { return static_cast<bool>(scalar_); }

 private:
  Scalar scalar_;
  Batch batch_;
};

/// Evaluator backed by the structural (CACTI-style) model.
ComponentEvaluator structural_evaluator(const cachemodel::CacheModel& model);

/// Evaluator backed by the paper's fitted Eq. (1)/(2) closed forms.
/// Dynamic energy and area come from `dynamic_source` (the structural
/// model) since the paper's forms cover only leakage and delay.
ComponentEvaluator fitted_evaluator(const cachemodel::FittedCacheModel& fits,
                                    const cachemodel::CacheModel& dynamic_source);

/// One knob choice for one component.
struct ComponentOption {
  tech::DeviceKnobs knobs;
  double delay_s = 0.0;
  double leakage_w = 0.0;
  double dynamic_j = 0.0;
  /// Sleep-state variant: this option spends idle time power-gated,
  /// retaining a fraction of its leakage at a wake-up delay penalty.
  bool gated = false;
};

/// Per-domain power gating: a gated component keeps
/// `sleep_leakage_factor` of its leakage (sleep-transistor retention
/// supply) and pays `wake_delay_factor` extra access delay for wake-up.
/// The optimizer decides per domain whether the leakage savings are worth
/// the delay inside the performance-loss budget.
struct GatingSpec {
  bool enabled = false;
  double sleep_leakage_factor = 0.05;
  double wake_delay_factor = 0.10;
};

/// The component structure one optimization runs over: the paper's four
/// components (base) or the six of a split-tag organization (extended),
/// plus the power-gating axis.  The first `array_count` entries form the
/// SRAM-array block that shares Scheme II's first knob pair; the rest are
/// the periphery block.
struct OptSpace {
  std::vector<cachemodel::ComponentKind> components;
  std::size_t array_count = 1;
  GatingSpec gating;

  /// The paper's fixed four-component space.
  static OptSpace base();
  /// All six components of a split-tag organization: cell + tag arrays in
  /// the array block; decoder, drivers, and comparators in the periphery.
  static OptSpace extended();
};

/// Option tables for every component of a space, in space order, with
/// sleep-state variants interleaved when gating is enabled.  Both search
/// engines build their tables through this one function so every
/// floating-point value they compare is formed identically.
std::vector<std::vector<ComponentOption>> space_component_tables(
    const ComponentEvaluator& eval, const OptSpace& space,
    const std::vector<tech::DeviceKnobs>& pairs);

/// Scheme II block table over a space: the array block (first array_count
/// components) or the periphery block (the rest), gating variants
/// included.
std::vector<ComponentOption> space_block_options(
    const ComponentEvaluator& eval, const OptSpace& space, bool array_block,
    const std::vector<tech::DeviceKnobs>& pairs);

/// Scheme III uniform table over all of a space's components, gating
/// variants included.
std::vector<ComponentOption> space_uniform_options(
    const ComponentEvaluator& eval, const OptSpace& space,
    const std::vector<tech::DeviceKnobs>& pairs);

/// Interleave sleep-state variants into an option table: for each option,
/// the awake original followed by its gated twin (leakage scaled by the
/// sleep factor, delay by 1 + wake penalty, dynamic energy unchanged).
/// Identity when gating is disabled.
std::vector<ComponentOption> with_gating(std::vector<ComponentOption> options,
                                         const GatingSpec& gating);

/// Evaluate every pair for one component.
std::vector<ComponentOption> component_options(
    const ComponentEvaluator& eval, cachemodel::ComponentKind kind,
    const std::vector<tech::DeviceKnobs>& pairs);

/// Options for a block of components sharing one pair: the per-pair sums
/// of their delay/leakage/dynamic energy.
std::vector<ComponentOption> block_options(
    const ComponentEvaluator& eval,
    const std::vector<cachemodel::ComponentKind>& kinds,
    const std::vector<tech::DeviceKnobs>& pairs);

}  // namespace nanocache::opt
