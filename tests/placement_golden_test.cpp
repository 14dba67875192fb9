// Golden pins of the placement algorithms: absolute placement digests, an
// FNV-1a digest of the cost trajectory's bytes, and the replica count,
// recorded once and compared literally.  The equivalence suite compares the
// incremental engines against the Figure-2 full re-evaluation loops, so a
// change that moved both the same way would pass it; these literals would
// not.
//
// A literal changes only when a placement algorithm changes on purpose —
// then re-record it and say why in the commit.  Host-tuned builds
// (HYBRIDCDN_NATIVE, -march=native) may contract floating-point operations
// differently and are skipped.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/placement/adaptive.h"
#include "src/placement/fixed_split.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/placement_io.h"
#include "src/util/serial.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;
using cdn::placement::HybridGreedyOptions;
using cdn::placement::PlacementModel;
using cdn::placement::PlacementResult;
using cdn::test::TestSystem;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::uint64_t trajectory_digest(const std::vector<double>& trajectory) {
  return util::fnv1a(trajectory.data(), trajectory.size() * sizeof(double));
}

void expect_pinned(const PlacementResult& result, std::uint64_t placement,
                   std::uint64_t trajectory, std::size_t replicas) {
  EXPECT_EQ(hex(placement::placement_digest(result.placement)),
            hex(placement))
      << "placement digest";
  EXPECT_EQ(hex(trajectory_digest(result.cost_trajectory)), hex(trajectory))
      << "cost trajectory digest";
  EXPECT_EQ(result.replicas_created, replicas);
}

class PlacementGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef HYBRIDCDN_NATIVE
    GTEST_SKIP() << "golden digests assume the portable (non-native) build";
#endif
  }

  PlacementResult hybrid(HybridGreedyOptions options = {}) const {
    return placement::hybrid_greedy(*t_.system, options);
  }

  TestSystem t_ = TestSystem::make(8, 12, 4);
};

TEST_F(PlacementGoldenTest, HybridDefault) {
  expect_pinned(hybrid(), 0x6dcca37371f83666ull,
                0x31fdb18bd56a696eull, 16);
}

TEST_F(PlacementGoldenTest, HybridSeeded) {
  placement::GreedyGlobalOptions seed_options;
  seed_options.max_replicas = 4;
  const auto seed = placement::greedy_global(*t_.system, seed_options);
  HybridGreedyOptions options;
  options.seed = &seed.placement;
  expect_pinned(hybrid(options), 0x745e16dfe1a65026ull,
                0x8a1c31dc281a2bf4ull, 17);
}

TEST_F(PlacementGoldenTest, HybridMaxReplicas) {
  HybridGreedyOptions options;
  options.max_replicas = 5;
  expect_pinned(hybrid(options), 0xdab42128dae2c0cbull,
                0x89c176a2d9c784feull, 5);
}

TEST_F(PlacementGoldenTest, HybridAddCostPerByte) {
  HybridGreedyOptions options;
  options.add_cost_per_byte = 0.01;
  expect_pinned(hybrid(options), 0x77d9b403d5a5b8fbull,
                0x43d6515bc60d9298ull, 7);
}

TEST_F(PlacementGoldenTest, HybridPerIterationPb) {
  HybridGreedyOptions options;
  options.pb_mode = model::PbMode::kPerIteration;
  expect_pinned(hybrid(options), 0x66c45a5096e37b61ull,
                0xf8d4ae82a085cfb8ull, 17);
}

TEST_F(PlacementGoldenTest, HybridClosedFormTier) {
  HybridGreedyOptions options;
  options.placement_model = PlacementModel::kClosedForm;
  expect_pinned(hybrid(options), 0x6dcca37371f83666ull,
                0x31fdb18bd56a696eull, 16);
}

TEST_F(PlacementGoldenTest, HybridCheTier) {
  HybridGreedyOptions options;
  options.placement_model = PlacementModel::kChe;
  expect_pinned(hybrid(options), 0xd6fb027477314474ull,
                0x6ee7a0ff5cacbc8aull, 16);
}

TEST_F(PlacementGoldenTest, GreedyGlobal) {
  expect_pinned(placement::greedy_global(*t_.system),
                0x5c1258228ab50d15ull, 0x0d790ec719b0b7adull, 23);
}

TEST_F(PlacementGoldenTest, FixedSplit) {
  // fixed_split runs greedy_global_with_budgets on 80% of every server.
  expect_pinned(placement::fixed_split(*t_.system, 0.2),
                0x98bf5d113b2a87c0ull, 0xf35ab2723d98d18full, 16);
}

TEST_F(PlacementGoldenTest, AdaptiveReplan) {
  // Site 0 (low popularity) goes viral; the replan keeps, drops and adds
  // replicas against the new demand with a transfer charge.
  const auto previous = hybrid();
  const auto& demand = *t_.demand;
  std::vector<double> values;
  for (std::size_t i = 0; i < demand.server_count(); ++i) {
    const auto row = demand.row(static_cast<workload::ServerId>(i));
    for (std::size_t j = 0; j < row.size(); ++j) {
      values.push_back(j == 0 ? row[j] * 80.0 : row[j]);
    }
  }
  const auto spiked = workload::DemandMatrix::from_values(
      demand.server_count(), demand.site_count(), values);
  const sys::CdnSystem system(*t_.catalog, spiked, *t_.distances, 0.15);
  placement::AdaptiveOptions options;
  options.transfer_cost_per_byte = 0.002;
  const auto outcome =
      placement::adaptive_hybrid_replan(system, previous, options);
  expect_pinned(outcome.result, 0x4c0d2e45e465208full,
                0x84025e72642b0235ull, 17);
}

}  // namespace
