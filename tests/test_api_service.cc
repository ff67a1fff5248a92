// Public facade (nanocache::api::Service): golden request/response checks,
// the grid-bounds validation contract, typed-error folding, and the
// memo-cache bitwise-equality guarantee (a hit returns the same object a
// miss computed, so serialized responses never depend on cache state).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "api/batch_io.h"
#include "core/explorer.h"
#include "nanocache/api.h"
#include "opt/tuple_menu.h"
#include "util/metrics.h"
#include "util/units.h"

namespace nanocache::api {
namespace {

std::shared_ptr<Service> make_service(ServiceConfig config = {}) {
  auto service = Service::create(std::move(config));
  EXPECT_TRUE(service.ok()) << service.error().message;
  return service.value();
}

TEST(ApiService, EvaluateGolden) {
  const auto service = make_service();
  EvalRequest request;  // L1, 16 KB, Vth 0.35 V, Tox 12 A
  const auto response = service->evaluate(request);
  ASSERT_TRUE(response.ok()) << response.error().message;

  const auto& r = response.value();
  EXPECT_FALSE(r.organization.empty());
  EXPECT_GT(r.access_time_ps, 0.0);
  EXPECT_GT(r.leakage_mw, 0.0);
  EXPECT_GT(r.dynamic_pj, 0.0);
  EXPECT_GT(r.area_um2, 0.0);
  // Total leakage decomposes into the subthreshold and gate shares.
  EXPECT_NEAR(r.leakage_mw, r.leakage_sub_mw + r.leakage_gate_mw,
              1e-9 * r.leakage_mw);

  // The paper's four components, cell array first, each at the requested
  // uniform knobs, summing to the cache totals.
  ASSERT_EQ(r.components.size(), 4u);
  double delay_sum = 0.0;
  double leak_sum = 0.0;
  for (const auto& c : r.components) {
    EXPECT_EQ(c.knobs.vth_v, request.knobs.vth_v);
    EXPECT_EQ(c.knobs.tox_a, request.knobs.tox_a);
    delay_sum += c.delay_ps;
    leak_sum += c.leakage_mw;
  }
  EXPECT_NEAR(delay_sum, r.access_time_ps, 1e-9 * r.access_time_ps);
  EXPECT_NEAR(leak_sum, r.leakage_mw, 1e-9 * r.leakage_mw);
}

TEST(ApiService, OptimizeGoldenAndInfeasibleIsData) {
  const auto service = make_service();

  OptimizeRequest request;  // L1, 16 KB, scheme II, 1400 pS
  const auto response = service->optimize(request);
  ASSERT_TRUE(response.ok()) << response.error().message;
  const auto& r = response.value().result;
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.access_time_ps, request.delay.target_ps * (1.0 + 1e-9));
  EXPECT_GT(r.leakage_mw, 0.0);
  ASSERT_EQ(r.assignment.size(), 4u);

  // An unmeetable constraint is data (feasible=false + reason), not an
  // error: the Outcome is ok.
  request.delay.target_ps = 1.0;
  const auto squeezed = service->optimize(request);
  ASSERT_TRUE(squeezed.ok()) << squeezed.error().message;
  EXPECT_FALSE(squeezed.value().result.feasible);
  EXPECT_FALSE(squeezed.value().result.infeasible_reason.empty());

  // A nonsensical constraint is a typed config error.
  request.delay.target_ps = -5.0;
  const auto bad = service->optimize(request);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kConfig);
}

TEST(ApiService, CreateRejectsOutOfRangeGrid) {
  // The paper's knob ranges: Vth 0.2-0.5 V, Tox 10-14 A.  Out-of-range
  // overrides must fail with a typed kConfig error, never clamp.
  ServiceConfig too_high_vth;
  too_high_vth.grid_vth_v = {0.25, 0.60};
  auto outcome = Service::create(too_high_vth);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kConfig);
  EXPECT_NE(outcome.error().message.find("Vth"), std::string::npos);

  ServiceConfig too_low_vth;
  too_low_vth.grid_vth_v = {0.10, 0.35};
  EXPECT_FALSE(Service::create(too_low_vth).ok());

  ServiceConfig too_thin_tox;
  too_thin_tox.grid_tox_a = {9.0, 12.0};
  outcome = Service::create(too_thin_tox);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kConfig);
  EXPECT_NE(outcome.error().message.find("Tox"), std::string::npos);

  ServiceConfig not_increasing;
  not_increasing.grid_vth_v = {0.35, 0.35};
  outcome = Service::create(not_increasing);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kConfig);

  // An in-range override is honored verbatim.
  ServiceConfig valid;
  valid.grid_vth_v = {0.25, 0.35, 0.45};
  valid.grid_tox_a = {10.0, 12.0, 14.0};
  const auto service = make_service(valid);
  EXPECT_EQ(service->explorer().config().grid.vth_values, valid.grid_vth_v);
  EXPECT_EQ(service->explorer().config().grid.tox_values, valid.grid_tox_a);
}

TEST(ApiService, ServeRejectsWrongSchemaVersion) {
  const auto service = make_service();
  Request request;
  request.schema_version = kSchemaVersion + 1;
  request.id = "r1";
  const auto response = service->serve(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, "r1");
  EXPECT_EQ(response.error.code, ErrorCode::kConfig);
}

TEST(ApiService, TupleMenuValidatesCardinality) {
  const auto service = make_service();
  TupleMenuRequest request;
  request.num_tox = 0;
  auto outcome = service->tuple_menu(request);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kConfig);

  request.num_tox = 2;
  request.num_vth = 99;  // larger than the grid's Vth count
  outcome = service->tuple_menu(request);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kConfig);
}

TEST(ApiService, TupleMenuEnumeratesEachMenuOncePerRequest) {
  const auto service = make_service();
  auto& menus =
      metrics::Registry::instance().counter("opt.menus_enumerated");
  // C(5,2) Tox menus x C(7,1) Vth menus on the paper's 5 x 7 grid.
  ASSERT_EQ(service->explorer().config().grid.tox_values.size(), 5u);
  ASSERT_EQ(service->explorer().config().grid.vth_values.size(), 7u);
  constexpr std::uint64_t kMenus = 10 * 7;

  TupleMenuRequest request;
  request.num_tox = 2;
  request.num_vth = 1;
  request.delay.targets_ps = {1300.0, 1700.0, 2000.0};
  request.include_frontier = true;
  request.frontier_max_points = 8;
  const auto before = menus.value();
  const auto first = service->tuple_menu(request);
  ASSERT_TRUE(first.ok());
  // The fastest AMAT, three targets and the frontier: one enumeration.
  EXPECT_EQ(menus.value() - before, kMenus);

  // Every piece was memoized: a repeat enumerates nothing.
  const auto again = service->tuple_menu(request);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(menus.value() - before, kMenus);
  EXPECT_EQ(again.value().targets.size(), 3u);
  EXPECT_EQ(again.value().frontier.size(), first.value().frontier.size());

  // A new target (and a repeat of it) costs one more enumeration in all.
  request.delay.targets_ps = {1300.0, 1500.0, 1500.0};
  const auto extended = service->tuple_menu(request);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(menus.value() - before, 2 * kMenus);
  EXPECT_EQ(extended.value().targets[1].energy_pj,
            extended.value().targets[2].energy_pj);

  // The fastest AMAT alone comes from the menu bounds: every menu is
  // enumerated and none runs its DP.
  auto& solved = metrics::Registry::instance().counter("opt.menus_solved");
  const auto system = service->explorer().default_system();
  const opt::TupleMenuSolver solver(system, service->explorer().config().grid);
  const auto menus_before = menus.value();
  const auto solved_before = solved.value();
  EXPECT_EQ(units::seconds_to_ps(solver.min_amat_s({2, 1})),
            first.value().min_amat_ps);
  EXPECT_EQ(menus.value() - menus_before, kMenus);
  EXPECT_EQ(solved.value() - solved_before, 0u);
}

TEST(ApiService, TupleMenuFrontierOfOnePointIsTheFastest) {
  const auto service = make_service();
  TupleMenuRequest request;
  request.num_tox = 1;
  request.num_vth = 2;
  request.delay.targets_ps = {1700.0};
  request.include_frontier = true;
  request.frontier_max_points = 1;
  const auto one = service->tuple_menu(request);
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one.value().frontier.size(), 1u);

  request.frontier_max_points = 96;
  const auto full = service->tuple_menu(request);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().frontier.size(), 1u);
  EXPECT_EQ(one.value().frontier.front().amat_ps,
            full.value().frontier.front().amat_ps);
  EXPECT_EQ(one.value().frontier.front().energy_pj,
            full.value().frontier.front().energy_pj);
}

TEST(ApiService, MemoHitIsBitwiseEqualToMiss) {
  Request request;
  request.kind = RequestKind::kEval;
  request.eval.knobs = Knobs{0.30, 13.0};

  // Miss path: a fresh service computes the evaluation.
  const auto cold = make_service();
  const auto miss = cold->serve(request);
  EXPECT_GT(cold->memo_stats().misses, 0u);
  EXPECT_EQ(cold->memo_stats().hits, 0u);

  // Hit path: the same service serves the same request from the memo.
  const auto hit = cold->serve(request);
  EXPECT_GT(cold->memo_stats().hits, 0u);

  // The contract behind batch determinism: a hit is bitwise-equal to the
  // miss that populated it, so serialized bytes are identical.
  EXPECT_EQ(response_to_json(miss), response_to_json(hit));

  // And a second fresh service (independent miss) agrees too.
  const auto cold2 = make_service();
  EXPECT_EQ(response_to_json(miss), response_to_json(cold2->serve(request)));
}

TEST(ApiService, OptimizeAndSchemesSweepShareMemoEntries) {
  const auto service = make_service();

  OptimizeRequest single;
  single.scheme = SchemeId::kII;
  single.delay.target_ps = 1400.0;
  const auto direct = service->optimize(single);
  ASSERT_TRUE(direct.ok());
  const auto stats_before = service->memo_stats();

  // A schemes sweep over the same delay target reuses the "opt|" entry the
  // single optimize populated: same bits in, same memo slot.
  SweepRequest sweep;
  sweep.kind = SweepKind::kSchemes;
  sweep.delay.targets_ps = {1400.0};
  const auto swept = service->sweep(sweep);
  ASSERT_TRUE(swept.ok()) << swept.error().message;
  EXPECT_GT(service->memo_stats().hits, stats_before.hits);

  ASSERT_EQ(swept.value().schemes.size(), 1u);
  const auto& row = swept.value().schemes.front();
  EXPECT_EQ(row.scheme2.leakage_mw, direct.value().result.leakage_mw);
  EXPECT_EQ(row.scheme2.access_time_ps, direct.value().result.access_time_ps);
}

}  // namespace
}  // namespace nanocache::api
