// Unit tests for the fault schedule and its timeline stepper.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/util/error.h"

namespace {

using cdn::fault::FaultSchedule;
using cdn::fault::FaultTimeline;
using cdn::fault::RandomFaultParams;
using cdn::PreconditionError;

TEST(FaultScheduleTest, EmptyByDefault) {
  FaultSchedule s;
  EXPECT_TRUE(s.empty());
  s.add_server_outage(0, 10, 20);
  EXPECT_FALSE(s.empty());
}

TEST(FaultScheduleTest, RejectsDegenerateIntervals) {
  FaultSchedule s;
  EXPECT_THROW(s.add_server_outage(0, 20, 20), PreconditionError);
  EXPECT_THROW(s.add_server_outage(0, 20, 10), PreconditionError);
  EXPECT_THROW(s.add_link_degradation(0, 0, 10, 0.5), PreconditionError);
  EXPECT_THROW(s.add_demand_surge(0, 0, 10, 0.0), PreconditionError);
}

TEST(FaultScheduleTest, ValidateChecksTargets) {
  FaultSchedule s;
  s.add_server_outage(3, 0, 10);
  s.add_origin_outage(5, 0, 10);
  EXPECT_NO_THROW(s.validate(4, 6));
  EXPECT_THROW(s.validate(3, 6), PreconditionError);  // server 3 >= n
  EXPECT_THROW(s.validate(4, 5), PreconditionError);  // site 5 >= m
}

TEST(FaultScheduleTest, ParseSerializeRoundtrip) {
  FaultSchedule s;
  s.add_server_outage(1, 100, 200);
  s.add_origin_outage(2, 50, 60);
  s.add_link_degradation(0, 10, 90, 3.5);
  s.add_demand_surge(4, 0, 1000, 20.0);
  const FaultSchedule back = FaultSchedule::parse(s.serialize());
  EXPECT_EQ(back.serialize(), s.serialize());
  ASSERT_EQ(back.server_outages().size(), 1u);
  EXPECT_EQ(back.server_outages()[0].begin, 100u);
  ASSERT_EQ(back.link_degradations().size(), 1u);
  EXPECT_DOUBLE_EQ(back.link_degradations()[0].latency_multiplier, 3.5);
}

TEST(FaultScheduleTest, ParseAcceptsCommentsAndBlankLines) {
  const auto s = FaultSchedule::parse(
      "# drill\n\nserver 0 down 10 20\nsurge 1 0 100 8\n");
  EXPECT_EQ(s.server_outages().size(), 1u);
  EXPECT_EQ(s.demand_surges().size(), 1u);
}

TEST(FaultScheduleTest, ParseRejectsGarbage) {
  EXPECT_THROW(FaultSchedule::parse("server 0 sideways 1 2"),
               PreconditionError);
  EXPECT_THROW(FaultSchedule::parse("frobnicate 1 2 3"), PreconditionError);
  EXPECT_THROW(FaultSchedule::parse("server 0 down 5"), PreconditionError);
}

TEST(FaultScheduleTest, RandomIsDeterministicAndClamped) {
  RandomFaultParams p;
  p.mtbf_requests = 5'000;
  p.mttr_requests = 1'000;
  p.seed = 9;
  const auto a = FaultSchedule::random(6, 10, 100'000, p);
  const auto b = FaultSchedule::random(6, 10, 100'000, p);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_FALSE(a.empty());
  for (const auto& o : a.server_outages()) {
    EXPECT_LT(o.begin, o.end);
    EXPECT_LE(o.end, 100'000u);
    EXPECT_LT(o.target, 6u);
  }
  EXPECT_TRUE(a.origin_outages().empty());  // origin_mtbf_scale = 0

  RandomFaultParams q = p;
  q.seed = 10;
  EXPECT_NE(FaultSchedule::random(6, 10, 100'000, q).serialize(),
            a.serialize());
}

TEST(FaultTimelineTest, HealthyWithoutFaults) {
  FaultSchedule s;
  FaultTimeline t(s, 3, 4);
  EXPECT_FALSE(t.advance(1'000'000));
  EXPECT_TRUE(t.server_up(0));
  EXPECT_TRUE(t.origin_up(3));
  EXPECT_FALSE(t.any_server_down());
  EXPECT_DOUBLE_EQ(t.max_demand_multiplier(), 1.0);
  EXPECT_EQ(t.transitions(), 0u);
}

TEST(FaultTimelineTest, StepsThroughAnOutage) {
  FaultSchedule s;
  s.add_server_outage(1, 10, 20);
  FaultTimeline t(s, 3, 2);
  EXPECT_FALSE(t.advance(9));
  EXPECT_TRUE(t.server_up(1));
  EXPECT_TRUE(t.advance(10));
  EXPECT_FALSE(t.server_up(1));
  EXPECT_EQ(t.server_up_mask()[1], 0);
  EXPECT_TRUE(t.any_server_down());
  EXPECT_FALSE(t.advance(19));
  EXPECT_TRUE(t.advance(20));
  EXPECT_TRUE(t.server_up(1));
  ASSERT_EQ(t.just_recovered().size(), 1u);
  EXPECT_EQ(t.just_recovered()[0], 1u);
  // just_recovered is refreshed (emptied) on the next advance.
  t.advance(21);
  EXPECT_TRUE(t.just_recovered().empty());
  EXPECT_EQ(t.transitions(), 2u);
}

TEST(FaultTimelineTest, OverlappingOutagesUseDepth) {
  FaultSchedule s;
  s.add_server_outage(0, 10, 30);
  s.add_server_outage(0, 20, 40);
  FaultTimeline t(s, 1, 1);
  t.advance(25);
  EXPECT_FALSE(t.server_up(0));
  t.advance(30);  // first interval ends, second still active
  EXPECT_FALSE(t.server_up(0));
  EXPECT_TRUE(t.just_recovered().empty());
  t.advance(40);
  EXPECT_TRUE(t.server_up(0));
  EXPECT_EQ(t.just_recovered().size(), 1u);
}

TEST(FaultTimelineTest, BackToBackOutageRecoversOnce) {
  // An outage ending exactly when another begins must keep the server
  // down with no spurious cold restart (ends sort before begins).
  FaultSchedule s;
  s.add_server_outage(0, 10, 20);
  s.add_server_outage(0, 20, 30);
  FaultTimeline t(s, 1, 1);
  t.advance(20);
  EXPECT_FALSE(t.server_up(0));
  EXPECT_TRUE(t.just_recovered().empty());
  t.advance(30);
  EXPECT_TRUE(t.server_up(0));
  EXPECT_EQ(t.just_recovered().size(), 1u);
}

TEST(FaultTimelineTest, MultipliersComposeAndReset) {
  FaultSchedule s;
  s.add_link_degradation(0, 10, 30, 2.0);
  s.add_link_degradation(0, 20, 40, 3.0);
  s.add_demand_surge(1, 10, 20, 8.0);
  FaultTimeline t(s, 2, 3);
  t.advance(15);
  EXPECT_DOUBLE_EQ(t.latency_multiplier(0), 2.0);
  EXPECT_DOUBLE_EQ(t.latency_multiplier(1), 1.0);
  EXPECT_DOUBLE_EQ(t.demand_multiplier(1), 8.0);
  EXPECT_DOUBLE_EQ(t.max_demand_multiplier(), 8.0);
  EXPECT_TRUE(t.any_surge_active());
  t.advance(25);
  EXPECT_DOUBLE_EQ(t.latency_multiplier(0), 6.0);  // overlap multiplies
  EXPECT_DOUBLE_EQ(t.max_demand_multiplier(), 1.0);
  EXPECT_FALSE(t.any_surge_active());
  t.advance(40);
  EXPECT_DOUBLE_EQ(t.latency_multiplier(0), 1.0);
  EXPECT_EQ(t.transitions(), 6u);
}

TEST(FaultTimelineTest, OriginOutagesAreIndependentOfServers) {
  FaultSchedule s;
  s.add_origin_outage(2, 5, 15);
  FaultTimeline t(s, 4, 3);
  t.advance(10);
  EXPECT_FALSE(t.origin_up(2));
  EXPECT_TRUE(t.origin_up(0));
  EXPECT_TRUE(t.server_up(2));
  EXPECT_FALSE(t.any_server_down());
  t.advance(15);
  EXPECT_TRUE(t.origin_up(2));
  // Origin recoveries are not server cold restarts.
  EXPECT_TRUE(t.just_recovered().empty());
}

constexpr std::uint64_t kNoTransition =
    std::numeric_limits<std::uint64_t>::max();

TEST(FaultTimelineTest, NextTransitionAtTimeZero) {
  FaultSchedule s;
  s.add_server_outage(0, 0, 5);
  FaultTimeline t(s, 1, 1);
  EXPECT_EQ(t.next_transition_time(), 0u);
  t.advance(0);
  EXPECT_FALSE(t.server_up(0));
  EXPECT_EQ(t.next_transition_time(), 5u);
}

TEST(FaultTimelineTest, NextTransitionOverBackToBackOutages) {
  // The end of [10, 20) and the begin of [20, 30) share one instant: one
  // advance applies both, and the next transition is the final end.
  FaultSchedule s;
  s.add_server_outage(0, 10, 20);
  s.add_server_outage(0, 20, 30);
  FaultTimeline t(s, 1, 1);
  EXPECT_EQ(t.next_transition_time(), 10u);
  t.advance(10);
  EXPECT_EQ(t.next_transition_time(), 20u);
  t.advance(20);
  EXPECT_FALSE(t.server_up(0));
  EXPECT_EQ(t.next_transition_time(), 30u);
}

TEST(FaultTimelineTest, NextTransitionOverOverlappingIntervals) {
  FaultSchedule s;
  s.add_server_outage(0, 10, 40);
  s.add_server_outage(0, 20, 30);
  s.add_link_degradation(1, 15, 25, 2.0);
  s.add_demand_surge(0, 12, 35, 4.0);
  FaultTimeline t(s, 2, 1);
  std::vector<std::uint64_t> seen;
  for (std::uint64_t now = 0; now < 50; ++now) {
    if (t.next_transition_time() == now) seen.push_back(now);
    t.advance(now);
    // Between transitions the state cannot change.
    EXPECT_GT(t.next_transition_time(), now);
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{10, 12, 15, 20, 25, 30, 35,
                                              40}));
}

TEST(FaultTimelineTest, NextTransitionAfterTheLastIsMax) {
  FaultSchedule s;
  s.add_origin_outage(0, 3, 7);
  FaultTimeline t(s, 1, 1);
  t.advance(6);
  EXPECT_EQ(t.next_transition_time(), 7u);
  t.advance(7);
  EXPECT_EQ(t.next_transition_time(), kNoTransition);
  t.advance(1'000);
  EXPECT_EQ(t.next_transition_time(), kNoTransition);

  FaultTimeline none(FaultSchedule{}, 1, 1);
  EXPECT_EQ(none.next_transition_time(), kNoTransition);
}

}  // namespace
