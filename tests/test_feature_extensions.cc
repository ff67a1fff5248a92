// Tests for the feature extensions: process corners and the read/write
// dynamic-energy split.
#include <gtest/gtest.h>

#include <memory>

#include "cachemodel/cache_model.h"
#include "energy/memory_system.h"
#include "tech/corners.h"
#include "util/error.h"

namespace nanocache {
namespace {

// --- corners -----------------------------------------------------------------

TEST(Corners, NamesDistinct) {
  EXPECT_EQ(tech::corner_name(tech::Corner::kTypical), "TT");
  EXPECT_EQ(tech::corner_name(tech::Corner::kFast), "FF");
  EXPECT_EQ(tech::corner_name(tech::Corner::kSlow), "SS");
}

TEST(Corners, TypicalIsIdentity) {
  const auto base = tech::bptm65();
  const auto tt = tech::apply_corner(base, tech::Corner::kTypical);
  EXPECT_DOUBLE_EQ(tt.isub0_a_per_um, base.isub0_a_per_um);
  EXPECT_DOUBLE_EQ(tt.idsat_ref_a_per_um, base.idsat_ref_a_per_um);
}

TEST(Corners, FastIsFasterAndLeakier) {
  const auto base = tech::bptm65();
  tech::DeviceModel tt(base);
  tech::DeviceModel ff(tech::apply_corner(base, tech::Corner::kFast));
  const tech::DeviceKnobs k{0.35, 12.0};
  EXPECT_GT(ff.on_current_a(1.0, k), tt.on_current_a(1.0, k));
  EXPECT_GT(ff.off_power_w(1.0, k), tt.off_power_w(1.0, k));
}

TEST(Corners, SlowIsSlowerAndLessLeaky) {
  const auto base = tech::bptm65();
  tech::DeviceModel tt(base);
  tech::DeviceModel ss(tech::apply_corner(base, tech::Corner::kSlow));
  const tech::DeviceKnobs k{0.35, 12.0};
  EXPECT_LT(ss.on_current_a(1.0, k), tt.on_current_a(1.0, k));
  EXPECT_LT(ss.off_power_w(1.0, k), tt.off_power_w(1.0, k));
}

TEST(Corners, SymmetricAroundTypical) {
  const auto base = tech::bptm65();
  const auto ff = tech::apply_corner(base, tech::Corner::kFast);
  const auto ss = tech::apply_corner(base, tech::Corner::kSlow);
  EXPECT_NEAR(ff.idsat_ref_a_per_um * ss.idsat_ref_a_per_um,
              base.idsat_ref_a_per_um * base.idsat_ref_a_per_um,
              base.idsat_ref_a_per_um * base.idsat_ref_a_per_um * 1e-9);
  EXPECT_NEAR(ff.isub0_a_per_um * ss.isub0_a_per_um,
              base.isub0_a_per_um * base.isub0_a_per_um,
              base.isub0_a_per_um * base.isub0_a_per_um * 1e-9);
}

// --- read/write energy split ---------------------------------------------------

std::unique_ptr<cachemodel::CacheModel> make_cache() {
  tech::DeviceModel dev(tech::bptm65());
  return std::make_unique<cachemodel::CacheModel>(
      cachemodel::l1_organization(16 * 1024, dev),
      tech::DeviceModel(dev.params()));
}

TEST(WriteEnergy, WritesCostMoreInTheArray) {
  const auto m = make_cache();
  const auto array = m->component(cachemodel::ComponentKind::kCellArray,
                                  {0.35, 12.0});
  EXPECT_GT(array.dynamic_write_energy_j, array.dynamic_energy_j);
}

TEST(WriteEnergy, PeripheryEqualForBothDirections) {
  const auto m = make_cache();
  for (auto kind : {cachemodel::ComponentKind::kDecoder,
                    cachemodel::ComponentKind::kAddressDrivers,
                    cachemodel::ComponentKind::kDataDrivers}) {
    const auto c = m->component(kind, {0.35, 12.0});
    EXPECT_DOUBLE_EQ(c.dynamic_write_energy_j, c.dynamic_energy_j);
  }
}

TEST(WriteEnergy, CacheTotalsSumComponents) {
  const auto m = make_cache();
  const auto r = m->evaluate_uniform({0.3, 11.0});
  double sum = 0.0;
  for (const auto& c : r.per_component) sum += c.dynamic_write_energy_j;
  EXPECT_NEAR(r.dynamic_write_energy_j, sum, sum * 1e-12);
  EXPECT_GT(r.dynamic_write_energy_j, r.dynamic_energy_j);
}

TEST(WriteEnergy, SystemModelBlendsByWriteFraction) {
  const auto l1 = make_cache();
  tech::DeviceModel dev(tech::bptm65());
  cachemodel::CacheModel l2(cachemodel::l2_organization(512 * 1024, dev),
                            tech::DeviceModel(dev.params()));
  const cachemodel::ComponentAssignment knobs(tech::DeviceKnobs{0.35, 12.0});

  energy::MissRates reads{0.03, 0.15, 0.0};
  energy::MissRates writes{0.03, 0.15, 1.0};
  energy::MissRates mixed{0.03, 0.15, 0.5};
  const auto er =
      energy::MemorySystemModel(*l1, l2, reads).evaluate(knobs, knobs);
  const auto ew =
      energy::MemorySystemModel(*l1, l2, writes).evaluate(knobs, knobs);
  const auto em =
      energy::MemorySystemModel(*l1, l2, mixed).evaluate(knobs, knobs);
  EXPECT_GT(ew.dynamic_energy_j, er.dynamic_energy_j);
  EXPECT_NEAR(em.dynamic_energy_j,
              0.5 * (er.dynamic_energy_j + ew.dynamic_energy_j),
              er.dynamic_energy_j * 1e-9);
}

TEST(WriteEnergy, SystemModelRejectsBadFraction) {
  const auto l1 = make_cache();
  tech::DeviceModel dev(tech::bptm65());
  cachemodel::CacheModel l2(cachemodel::l2_organization(512 * 1024, dev),
                            tech::DeviceModel(dev.params()));
  EXPECT_THROW(
      energy::MemorySystemModel(*l1, l2, energy::MissRates{0.03, 0.15, 1.5}),
      Error);
}

}  // namespace
}  // namespace nanocache
