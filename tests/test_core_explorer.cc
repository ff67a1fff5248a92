// Tests for the high-level Explorer API: configuration validation, model
// caching, and the structure of each experiment's output.
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include "core/explorer.h"
#include "util/error.h"

namespace nanocache::core {
namespace {

Explorer& explorer() {
  static Explorer e;
  return e;
}

TEST(ExperimentConfig, DefaultsValidate) {
  EXPECT_NO_THROW(ExperimentConfig{}.validate());
}

TEST(ExperimentConfig, RejectsBadValues) {
  ExperimentConfig c;
  c.l2_size_bytes = c.l1_size_bytes;  // L2 must exceed L1
  EXPECT_THROW(c.validate(), Error);

  c = ExperimentConfig{};
  c.amat_target_s = 0.0;
  EXPECT_THROW(c.validate(), Error);

  c = ExperimentConfig{};
  c.l1_size_sweep.clear();
  EXPECT_THROW(c.validate(), Error);
}

TEST(ExperimentConfig, AmatTargetsSpanPaperRange) {
  const auto targets = ExperimentConfig{}.amat_targets_s();
  ASSERT_EQ(targets.size(), 9u);
  EXPECT_NEAR(targets.front(), 1300e-12, 1e-15);
  EXPECT_NEAR(targets.back(), 2100e-12, 1e-15);
}

TEST(Explorer, ModelCachingReturnsSameInstance) {
  const auto& a = explorer().l1_model(16 * 1024);
  const auto& b = explorer().l1_model(16 * 1024);
  EXPECT_EQ(&a, &b);
  // L1 and L2 of the same size are distinct models.
  const auto& l2 = explorer().l2_model(256 * 1024);
  EXPECT_NE(static_cast<const void*>(&a), static_cast<const void*>(&l2));
}

/// Bitwise equality of every component's metrics from two evaluators of
/// `model`'s component kinds at `knobs`.
void expect_components_equal(const cachemodel::CacheModel& model,
                             const opt::ComponentEvaluator& a,
                             const opt::ComponentEvaluator& b,
                             const tech::DeviceKnobs& knobs) {
  for (std::size_t i = 0; i < model.num_components(); ++i) {
    const auto kind = cachemodel::kExtendedComponents[i];
    const auto ma = a(kind, knobs);
    const auto mb = b(kind, knobs);
    EXPECT_EQ(std::memcmp(&ma, &mb, sizeof ma), 0) << "component " << i;
  }
}

TEST(Explorer, ConcurrentFirstTouchReturnsOneInstance) {
  // Eight threads race the first touch of a fixed model, a design-space
  // variant and a fitted evaluator.  Builds run outside the Explorer's
  // lock, so several threads may build; every caller must still get the
  // one instance the map kept, equal bit for bit to a serial build.
  ExperimentConfig config;
  config.use_fitted_models = true;
  const Explorer raced(config);
  const Explorer serial(config);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kL1Bytes = 32 * 1024;
  const tech::DeviceKnobs knobs{0.35, 12.0};

  std::latch start(kThreads);
  std::vector<const cachemodel::CacheModel*> l1(kThreads), variant(kThreads);
  std::vector<opt::ComponentEvaluator> evals(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      l1[t] = &raced.l1_model(kL1Bytes);
      variant[t] = &raced.variant_model(64 * 1024, false, 4, 2);
      evals[t] = raced.evaluator(raced.l1_model(16 * 1024));
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(l1[t], l1[0]);
    EXPECT_EQ(variant[t], variant[0]);
  }
  EXPECT_EQ(l1[0], &raced.l1_model(kL1Bytes));
  EXPECT_EQ(variant[0], &raced.variant_model(64 * 1024, false, 4, 2));

  const auto& serial_l1 = serial.l1_model(kL1Bytes);
  expect_components_equal(serial_l1, opt::structural_evaluator(*l1[0]),
                          opt::structural_evaluator(serial_l1), knobs);
  const auto& serial_variant = serial.variant_model(64 * 1024, false, 4, 2);
  expect_components_equal(serial_variant,
                          opt::structural_evaluator(*variant[0]),
                          opt::structural_evaluator(serial_variant), knobs);
  const auto& fitted_model = serial.l1_model(16 * 1024);
  const auto serial_fitted = serial.evaluator(fitted_model);
  for (int t = 0; t < kThreads; ++t) {
    expect_components_equal(fitted_model, evals[t], serial_fitted, knobs);
  }
}

TEST(Explorer, Fig1SeriesStructure) {
  const auto series = explorer().fig1_fixed_knob(16 * 1024, 5);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_FALSE(series[0].vth_fixed);  // Tox = 10 A
  EXPECT_FALSE(series[1].vth_fixed);  // Tox = 14 A
  EXPECT_TRUE(series[2].vth_fixed);   // Vth = 0.2 V
  EXPECT_TRUE(series[3].vth_fixed);   // Vth = 0.4 V
  for (const auto& s : series) {
    ASSERT_EQ(s.points.size(), 5u);
    for (const auto& p : s.points) {
      EXPECT_GT(p.access_time_s, 0.0);
      EXPECT_GT(p.leakage_w, 0.0);
    }
    // Swept axis strictly increasing.
    for (std::size_t i = 1; i < s.points.size(); ++i) {
      EXPECT_GT(s.points[i].swept_value, s.points[i - 1].swept_value);
    }
  }
}

TEST(Explorer, Fig1LabelsMatchPaper) {
  const auto series = explorer().fig1_fixed_knob(16 * 1024, 3);
  EXPECT_EQ(series[0].label, "Tox=10A");
  EXPECT_EQ(series[1].label, "Tox=14A");
  EXPECT_EQ(series[2].label, "Vth=200mV");
  EXPECT_EQ(series[3].label, "Vth=400mV");
}

TEST(Explorer, DelayLadderMonotone) {
  const auto ladder = explorer().delay_ladder(16 * 1024, 6);
  ASSERT_EQ(ladder.size(), 6u);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i], ladder[i - 1]);
  }
  EXPECT_THROW(explorer().delay_ladder(16 * 1024, 1), Error);
}

TEST(Explorer, SchemeComparisonRowsAlign) {
  const auto ladder = explorer().delay_ladder(16 * 1024, 4);
  const auto rows = explorer().scheme_comparison(16 * 1024, ladder);
  ASSERT_EQ(rows.size(), ladder.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rows[i].delay_target_s, ladder[i]);
  }
  // The loosest target must be feasible for all three schemes.
  ASSERT_TRUE(rows.back().scheme1 && rows.back().scheme2 &&
              rows.back().scheme3);
}

TEST(Explorer, SqueezeTargetBetweenExtremes) {
  const double tight = explorer().l2_squeeze_target_s(1.0);
  const double loose = explorer().l2_squeeze_target_s(1.5);
  EXPECT_LT(tight, loose);
  EXPECT_GT(tight, 1e-9);
  EXPECT_LT(loose, 4e-9);
  EXPECT_THROW(explorer().l2_squeeze_target_s(0.5), Error);
}

TEST(Explorer, L2SweepCoversConfiguredSizes) {
  const double target = explorer().l2_squeeze_target_s(1.15);
  const auto rows = explorer().l2_size_sweep(opt::Scheme::kUniform, target);
  ASSERT_EQ(rows.size(), explorer().config().l2_size_sweep.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].size_bytes, explorer().config().l2_size_sweep[i]);
    if (rows[i].feasible) {
      EXPECT_LE(rows[i].amat_s, target * (1 + 1e-9));
      EXPECT_GT(rows[i].total_leakage_w, rows[i].level_leakage_w);
    }
  }
}

TEST(Explorer, L2SweepMissRatesFallWithSize) {
  const auto rows = explorer().l2_size_sweep(
      opt::Scheme::kUniform, explorer().l2_squeeze_target_s(1.3));
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i].miss_rate, rows[i - 1].miss_rate);
  }
}

TEST(Explorer, L1SweepSmallestWins) {
  const double target = explorer().l2_squeeze_target_s(1.25);
  const auto rows = explorer().l1_size_sweep(target);
  ASSERT_EQ(rows.size(), explorer().config().l1_size_sweep.size());
  const SizeSweepRow* best = nullptr;
  for (const auto& r : rows) {
    if (!r.feasible) continue;
    if (!best || r.total_leakage_w < best->total_leakage_w) best = &r;
  }
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->size_bytes, rows.front().size_bytes);
}

TEST(Explorer, MenuLabels) {
  EXPECT_EQ(Explorer::menu_label({2, 3}), "2 Tox + 3 Vth");
  const auto specs = Explorer::default_fig2_specs();
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].num_tox, 2);
  EXPECT_EQ(specs[0].num_vth, 2);
}

TEST(Explorer, DefaultSystemUsesConfiguredSizes) {
  const auto sys = explorer().default_system();
  EXPECT_EQ(sys.l1().organization().size_bytes,
            explorer().config().l1_size_bytes);
  EXPECT_EQ(sys.l2().organization().size_bytes,
            explorer().config().l2_size_bytes);
  EXPECT_GT(sys.miss().l1, 0.0);
  EXPECT_LT(sys.miss().l1, 0.2);
}

}  // namespace
}  // namespace nanocache::core
