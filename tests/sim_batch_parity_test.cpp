// Bit-level parity of the sequential engine with the scalar reference
// simulator (tests/reference_sim.h): the chunked loop over the shared
// request kernel must reproduce the one-request-at-a-time report exactly —
// across cache policies and staleness modes, and under every fault kind,
// whose transitions end chunks.
//
// The reference loop replays the request stream one request at a time;
// the test names refer to that replay.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "src/cache/cache_factory.h"
#include "src/fault/fault_schedule.h"
#include "src/placement/hybrid_greedy.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "tests/reference_sim.h"
#include "tests/test_support.h"

namespace {

using cdn::cache::PolicyKind;
using cdn::fault::FaultSchedule;
using cdn::sim::report_digest;
using cdn::sim::simulate;
using cdn::sim::SimulationConfig;
using cdn::sim::SimulationReport;
using cdn::sim::StalenessMode;
using cdn::test::reference_simulate;
using cdn::test::TestSystem;

constexpr std::uint64_t kRequests = 120'000;
constexpr std::uint64_t kSeed = 23;

SimulationConfig base_config() {
  SimulationConfig cfg;
  cfg.total_requests = kRequests;
  cfg.warmup_fraction = 0.3;
  cfg.seed = kSeed;
  return cfg;
}

void expect_same_report(const SimulationReport& engine,
                        const SimulationReport& reference) {
  EXPECT_EQ(report_digest(engine), report_digest(reference));
  EXPECT_EQ(engine.measured_requests, reference.measured_requests);
  EXPECT_EQ(engine.mean_latency_ms, reference.mean_latency_ms);
  EXPECT_EQ(engine.mean_cost_hops, reference.mean_cost_hops);
  EXPECT_EQ(engine.cache_hit_ratio, reference.cache_hit_ratio);
  EXPECT_EQ(engine.failed_requests, reference.failed_requests);
  EXPECT_EQ(engine.failover_requests, reference.failover_requests);
  EXPECT_EQ(engine.cold_restarts, reference.cold_restarts);
  EXPECT_EQ(engine.fault_transitions, reference.fault_transitions);
  EXPECT_EQ(engine.cache_totals.hits(), reference.cache_totals.hits());
  EXPECT_EQ(engine.cache_totals.evictions(),
            reference.cache_totals.evictions());
}

class BatchParityTest
    : public ::testing::TestWithParam<std::tuple<PolicyKind, StalenessMode>> {
};

TEST_P(BatchParityTest, LiveRunMatchesTraceReplayExactly) {
  const auto [policy, staleness] = GetParam();
  auto t = TestSystem::make();
  // A nonzero lambda exercises the flagged-request branches; kUncacheable
  // additionally covers the admission bypass.
  t.catalog->set_uncacheable_fraction(0.2);
  const auto placement = cdn::placement::hybrid_greedy(*t.system);

  auto live_cfg = base_config();
  live_cfg.policy = policy;
  live_cfg.staleness = staleness;
  live_cfg.slo_ms = 6.0;
  const auto live = simulate(*t.system, placement, live_cfg);
  expect_same_report(live, reference_simulate(*t.system, placement, live_cfg));
  t.catalog->set_uncacheable_fraction(0.0);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndStaleness, BatchParityTest,
    ::testing::Combine(::testing::Values(PolicyKind::kLru, PolicyKind::kFifo,
                                         PolicyKind::kClock),
                       ::testing::Values(StalenessMode::kRefresh,
                                         StalenessMode::kUncacheable)),
    [](const auto& suite_info) {
      std::string name =
          cdn::cache::policy_name(std::get<0>(suite_info.param));
      name += std::get<1>(suite_info.param) == StalenessMode::kRefresh
                  ? "Refresh"
                  : "Uncacheable";
      return name;
    });

/// One schedule per fault kind, plus all four at once.  Intervals overlap
/// the warm-up edge, abut each other and end inside the run, so chunks end
/// at transitions in every position.
FaultSchedule schedule(const std::string& kind) {
  FaultSchedule s;
  if (kind == "Server" || kind == "All") {
    s.add_server_outage(1, 20'000, 50'000);
    s.add_server_outage(1, 50'000, 61'000);  // back-to-back: no restart
    s.add_server_outage(3, 36'000, 90'001);
  }
  if (kind == "Origin" || kind == "All") {
    // Sites 1 and 3 have no replica: their requests fail while down.
    s.add_origin_outage(1, 0, 40'000);
    s.add_origin_outage(3, 30'000, 100'000);
  }
  if (kind == "Link" || kind == "All") {
    s.add_link_degradation(2, 25'000, 70'000, 4.0);
    s.add_link_degradation(2, 60'000, 80'000, 1.5);
  }
  if (kind == "Surge" || kind == "All") {
    s.add_demand_surge(6, 40'000, 75'000, 10.0);
    s.add_demand_surge(7, 50'000, 60'000, 3.0);
  }
  return s;
}

class FaultParityTest
    : public ::testing::TestWithParam<std::tuple<std::string, StalenessMode>> {
};

TEST_P(FaultParityTest, LiveAndReplayedRunsMatchTheReference) {
  const auto [kind, staleness] = GetParam();
  auto t = TestSystem::make();
  t.catalog->set_uncacheable_fraction(0.2);
  const auto placement = cdn::placement::hybrid_greedy(*t.system);
  const FaultSchedule faults = schedule(kind);

  auto cfg = base_config();
  cfg.staleness = staleness;
  cfg.faults = &faults;
  cfg.slo_ms = 30.0;
  const auto live = simulate(*t.system, placement, cfg);
  EXPECT_GT(live.fault_transitions, 0u);
  expect_same_report(live, reference_simulate(*t.system, placement, cfg));
  t.catalog->set_uncacheable_fraction(0.0);
}

INSTANTIATE_TEST_SUITE_P(
    FaultKinds, FaultParityTest,
    ::testing::Combine(::testing::Values("Server", "Origin", "Link", "Surge",
                                         "All"),
                       ::testing::Values(StalenessMode::kRefresh,
                                         StalenessMode::kUncacheable)),
    [](const auto& suite_info) {
      return std::get<0>(suite_info.param) +
             (std::get<1>(suite_info.param) == StalenessMode::kRefresh
                  ? "Refresh"
                  : "Uncacheable");
    });

}  // namespace
