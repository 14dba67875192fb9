// Placement model tiers (--placement-model): accuracy of the tiered
// candidate pricing against the exact Eq. 1/Eq. 2 model, the warm-started
// Che solve, the 1% final-cost gate of the error-gated fallback, tier
// counters, validation, and the CLI parsing helpers.
//
// The contract under test (docs/PERFORMANCE.md, "Placement model tiers"):
// tiers price the candidate *ranking* only — the hit matrix, miss flows,
// cost trajectory and final states stay exact — and the margin fallback
// keeps the final hybrid cost within 1% of the exact engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/model/steady_state.h"
#include "src/obs/registry.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/hybrid_internal.h"
#include "src/placement/model_support.h"
#include "src/placement/tier_evaluator.h"
#include "src/util/error.h"
#include "src/util/zipf.h"
#include "tests/test_support.h"

namespace {

using cdn::model::che_characteristic_time;
using cdn::model::che_characteristic_time_warm;
using cdn::model::CheSolveResult;
using cdn::model::OccupancyCurve;
using cdn::placement::hybrid_greedy;
using cdn::placement::HybridGreedyOptions;
using cdn::placement::ModelContext;
using cdn::placement::modeled_hit_matrix;
using cdn::placement::parse_placement_model;
using cdn::placement::PlacementModel;
using cdn::placement::placement_model_name;
using cdn::placement::RelativeColumns;
using cdn::placement::TierEvaluator;
using cdn::test::TestSystem;
using cdn::PreconditionError;
using cdn::util::ZipfDistribution;

// ---------------------------------------------------------------------------
// Warm-started Che characteristic time (model layer).

/// Synthetic renormalised site weights: a truncated geometric mix with one
/// site carrying `head` of the mass (head -> 1 exercises the p -> 1 edge).
std::vector<double> make_weights(std::size_t sites, double head) {
  std::vector<double> w(sites, 0.0);
  w[0] = head;
  double rest = 1.0 - head;
  for (std::size_t j = 1; j < sites; ++j) {
    w[j] = rest / static_cast<double>(sites - 1);
  }
  return w;
}

TEST(CheWarmStartTest, AgreesWithColdSolveAcrossThetaAndBuffers) {
  for (const double theta : {0.6, 0.8, 1.0, 1.2}) {
    SCOPED_TRACE("theta " + std::to_string(theta));
    const ZipfDistribution zipf(200, theta);
    const OccupancyCurve occupancy(zipf, 1024);
    const auto weights = make_weights(8, 0.4);
    for (const std::uint64_t slots :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{10},
          std::uint64_t{100}, std::uint64_t{750}}) {
      SCOPED_TRACE("slots " + std::to_string(slots));
      const double cold = che_characteristic_time(weights, occupancy, slots);
      // Warm starts bracketing the solution from below, above, and exactly.
      for (const double factor : {0.5, 1.0, 2.0}) {
        const CheSolveResult warm = che_characteristic_time_warm(
            weights, occupancy, slots, factor * cold);
        if (cold > 0.0) {
          EXPECT_NEAR(warm.k, cold, 1e-6 * cold)
              << "warm factor " << factor;
        } else {
          EXPECT_DOUBLE_EQ(warm.k, cold);
        }
      }
      // No warm start degrades to the cold bracket, same answer.
      const CheSolveResult none =
          che_characteristic_time_warm(weights, occupancy, slots, 0.0);
      if (cold > 0.0) {
        EXPECT_NEAR(none.k, cold, 1e-6 * cold);
      } else {
        EXPECT_DOUBLE_EQ(none.k, cold);
      }
    }
  }
}

TEST(CheWarmStartTest, EdgeCasesMirrorColdSolve) {
  const ZipfDistribution zipf(100, 0.8);
  const OccupancyCurve occupancy(zipf, 512);
  const auto weights = make_weights(6, 0.5);
  // B = 0: no cache, K = 0, no iterations wasted.
  const CheSolveResult empty =
      che_characteristic_time_warm(weights, occupancy, 0, 123.0);
  EXPECT_DOUBLE_EQ(empty.k, 0.0);
  EXPECT_EQ(empty.iterations, 0u);
  // No cacheable weight: K = 0.
  const std::vector<double> zeros(6, 0.0);
  EXPECT_DOUBLE_EQ(
      che_characteristic_time_warm(zeros, occupancy, 50, 10.0).k, 0.0);
  // Cache fits the whole cacheable set: saturated regime, same as cold.
  const double cold_fit = che_characteristic_time(weights, occupancy, 100'000);
  EXPECT_DOUBLE_EQ(
      che_characteristic_time_warm(weights, occupancy, 100'000, 5.0).k,
      cold_fit);
}

TEST(CheWarmStartTest, GoodWarmStartIteratesLessThanCold) {
  const ZipfDistribution zipf(300, 1.0);
  const OccupancyCurve occupancy(zipf, 1024);
  const auto weights = make_weights(10, 0.3);
  const std::uint64_t slots = 500;
  const CheSolveResult cold =
      che_characteristic_time_warm(weights, occupancy, slots, 0.0);
  // Re-solve a nearby fixed point (one replica's worth of slots removed)
  // warm-started from the previous answer — the intended placement usage.
  const CheSolveResult warm =
      che_characteristic_time_warm(weights, occupancy, slots - 30, cold.k);
  EXPECT_GT(cold.iterations, 0u);
  EXPECT_GT(warm.iterations, 0u);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(CheWarmStartTest, FixedPointPropertyAcrossBufferSweep) {
  // The returned K must actually satisfy sum_j N(K * w_j) ~= target,
  // including the p -> 1 edge where one site dominates the mass.
  for (const double theta : {0.6, 1.2}) {
    const ZipfDistribution zipf(150, theta);
    const OccupancyCurve occupancy(zipf, 1024);
    for (const double head : {0.4, 0.999}) {
      SCOPED_TRACE("theta " + std::to_string(theta) + " head " +
                   std::to_string(head));
      const auto weights = make_weights(5, head);
      double prev_k = 0.0;
      for (const std::uint64_t slots :
           {std::uint64_t{1}, std::uint64_t{20}, std::uint64_t{200},
            std::uint64_t{600}}) {
        const CheSolveResult r =
            che_characteristic_time_warm(weights, occupancy, slots, prev_k);
        const double target = static_cast<double>(
            std::min<std::uint64_t>(slots, 5 * 150));
        double occupied = 0.0;
        for (const double w : weights) {
          occupied += occupancy.evaluate(w, r.k);
        }
        EXPECT_NEAR(occupied, target, 1e-3 * target + 1e-6);
        EXPECT_GT(r.k, prev_k);  // fewer slots -> smaller K, sweep ascends
        prev_k = r.k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// TierEvaluator pricing accuracy against the exact penalty.

struct TierFixture {
  TestSystem t;
  ModelContext context;
  std::vector<cdn::model::ServerCacheState> states;
  cdn::sys::ReplicaPlacement placement;
  cdn::sys::NearestReplicaIndex nearest;
  std::vector<double> hit;

  explicit TierFixture(PlacementModel tier, TestSystem sys)
      : t(std::move(sys)),
        context(*t.system, cdn::model::PbMode::kAtInit, tier),
        states(context.make_states()),
        placement(t.system->server_storage(), t.system->site_bytes()),
        nearest(t.system->distances(), placement),
        hit(modeled_hit_matrix(states)) {}

  TierEvaluator make_evaluator() const {
    return TierEvaluator(*t.system, states, nearest, context.curve(),
                         context.occupancy(), context.placement_model());
  }
};

/// Max |exact - tier| over all feasible candidates, as a fraction of the
/// largest |exact| penalty (the natural scale of the ranking decision).
void expect_penalty_accuracy(PlacementModel tier, double rel_tol) {
  const TierFixture f(tier, TestSystem::make(5, 8, 3, 120, 0.12, 4.0, 17));
  const TierEvaluator evaluator = f.make_evaluator();
  const std::size_t n = f.t.system->server_count();
  const std::size_t m = f.t.system->site_count();
  double scale = 0.0;
  std::vector<double> exact(n * m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto site = static_cast<std::uint32_t>(j);
      if (!f.states[i].can_fit(site) || f.states[i].is_replicated(site)) {
        continue;
      }
      exact[i * m + j] = cdn::placement::detail::hybrid_cache_penalty(
          *f.t.system, f.nearest, f.states[i], f.hit,
          static_cast<cdn::sys::ServerIndex>(i),
          static_cast<cdn::sys::SiteIndex>(j), nullptr);
      scale = std::max(scale, std::abs(exact[i * m + j]));
    }
  }
  ASSERT_GT(scale, 0.0) << "vacuous fixture: every exact penalty is zero";
  std::size_t compared = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto site = static_cast<std::uint32_t>(j);
      if (!f.states[i].can_fit(site) || f.states[i].is_replicated(site)) {
        continue;
      }
      const double priced = evaluator.penalty(
          static_cast<cdn::sys::ServerIndex>(i),
          static_cast<cdn::sys::SiteIndex>(j));
      EXPECT_NEAR(priced, exact[i * m + j], rel_tol * scale)
          << "candidate (" << i << ", " << j << ")";
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_EQ(evaluator.evaluations(), compared);
}

TEST(TierEvaluatorTest, ClosedFormPenaltyTracksExact) {
  // The penalty is a difference of two nearly-equal expectations, so the
  // closed-form-vs-empirical model gap (a few percent per term) amplifies;
  // measured worst case is ~6.5% of the benefit scale and is grid-size
  // independent (it is model error, not tabulation error).  The engines'
  // exact-verify fallback owns the final accuracy (1% cost gate below).
  expect_penalty_accuracy(PlacementModel::kClosedForm, 0.10);
}

TEST(TierEvaluatorTest, ChePenaltyTracksExact) {
  // The Che fixed point is a different approximation of K', not a
  // tabulation of the exact solve — the band is wider by design and the
  // engines' margin fallback owns the final accuracy (1% cost gate below).
  expect_penalty_accuracy(PlacementModel::kChe, 0.25);
}

TEST(TierEvaluatorTest, CheIterationCounterAdvances) {
  const TierFixture f(PlacementModel::kChe,
                      TestSystem::make(4, 6, 2, 100, 0.15, 6.0, 11));
  const TierEvaluator evaluator = f.make_evaluator();
  evaluator.penalty(0, 0);
  EXPECT_GT(evaluator.che_iterations(), 0u);
}

TEST(TierEvaluatorTest, CheRejectsZeroSlotServer) {
  // Storage so small that no server has a single LRU slot: the Che tier has
  // no occupancy fixed point to anchor and must refuse loudly.
  const auto t = TestSystem::make(4, 6, 2, 100, 1e-7);
  const ModelContext context(*t.system, cdn::model::PbMode::kAtInit,
                             PlacementModel::kChe);
  const auto states = context.make_states();
  ASSERT_EQ(states.front().buffer_slots(), 0u)
      << "fixture regression: expected a zero-slot cache";
  const cdn::sys::ReplicaPlacement placement(t.system->server_storage(),
                                             t.system->site_bytes());
  const cdn::sys::NearestReplicaIndex nearest(t.system->distances(),
                                              placement);
  EXPECT_THROW(TierEvaluator(*t.system, states, nearest, context.curve(),
                             context.occupancy(), PlacementModel::kChe),
               PreconditionError);
  // End-to-end: the hybrid run surfaces the same rejection.
  HybridGreedyOptions options;
  options.placement_model = PlacementModel::kChe;
  EXPECT_THROW(hybrid_greedy(*t.system, options), PreconditionError);
}

/// Applies one commit of (server, site) to the fixture the way the
/// incremental engine does — placement, nearest index, model state, the
/// server's hit row and miss-flow row — and returns on_replica_added's
/// changed-server list.
std::vector<cdn::sys::ServerIndex> commit_replica(TierFixture& f,
                                                  std::vector<double>& flow,
                                                  std::size_t i,
                                                  std::size_t j) {
  const std::size_t m = f.t.system->site_count();
  const auto server = static_cast<cdn::sys::ServerIndex>(i);
  const auto site = static_cast<cdn::sys::SiteIndex>(j);
  f.placement.add(server, site);
  auto changed = f.nearest.on_replica_added(server, site);
  f.states[i].replicate(static_cast<std::uint32_t>(j));
  for (std::size_t k = 0; k < m; ++k) {
    f.hit[i * m + k] = f.states[i].hit_ratio(static_cast<std::uint32_t>(k));
  }
  cdn::placement::refresh_miss_flow_row(*f.t.system, f.hit, server, flow);
  return changed;
}

/// Every (server, site) of the columns against the canonical loop.  Same
/// ascending-k accumulation order: bitwise identity, not NEAR.
void expect_columns_match(const TierFixture& f, const RelativeColumns& columns,
                          const std::vector<double>& flow) {
  const std::size_t n = f.t.system->server_count();
  const std::size_t m = f.t.system->site_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto server = static_cast<cdn::sys::ServerIndex>(i);
      const auto site = static_cast<cdn::sys::SiteIndex>(j);
      const double exact = cdn::placement::detail::hybrid_relative_gain(
          *f.t.system, f.placement, f.nearest, f.hit, flow.data(), server,
          site);
      EXPECT_EQ(columns.relative_gain(server, site), exact)
          << "candidate (" << i << ", " << j << ")";
    }
  }
}

/// Builds the columns after `seeds` commits, then replays `commits` more
/// through on_commit, checking every candidate after each one.  Commits
/// walk the N x M grid with a stride coprime to it, skipping cells that no
/// longer fit, so they spread over servers and sites.
void replay_relative_columns(std::size_t seeds, std::size_t commits) {
  TierFixture f(PlacementModel::kClosedForm,
                TestSystem::make(5, 7, 2, 110, 0.3, 5.0, 23));
  const std::size_t n = f.t.system->server_count();
  const std::size_t m = f.t.system->site_count();
  std::vector<double> flow =
      cdn::placement::miss_flow_matrix(*f.t.system, f.hit);
  std::size_t cell = 0;
  auto next_feasible = [&]() -> std::optional<std::size_t> {
    for (std::size_t tries = 0; tries < n * m; ++tries) {
      cell = (cell + 7) % (n * m);
      if (f.placement.can_add(static_cast<cdn::sys::ServerIndex>(cell / m),
                              static_cast<cdn::sys::SiteIndex>(cell % m))) {
        return cell;
      }
    }
    return std::nullopt;
  };
  for (std::size_t s = 0; s < seeds; ++s) {
    const auto c = next_feasible();
    ASSERT_TRUE(c.has_value()) << "seed commit " << s << " does not fit";
    commit_replica(f, flow, *c / m, *c % m);
  }
  RelativeColumns columns;
  columns.build(*f.t.system, f.placement, f.nearest, flow);
  expect_columns_match(f, columns, flow);
  for (std::size_t s = 0; s < commits; ++s) {
    SCOPED_TRACE("after commit " + std::to_string(s));
    const auto c = next_feasible();
    ASSERT_TRUE(c.has_value()) << "commit " << s << " does not fit";
    const auto changed = commit_replica(f, flow, *c / m, *c % m);
    columns.on_commit(f.nearest, flow,
                      static_cast<cdn::sys::ServerIndex>(*c / m),
                      static_cast<cdn::sys::SiteIndex>(*c % m), changed);
    expect_columns_match(f, columns, flow);
  }
}

TEST(TierEvaluatorTest, RelativeColumnsMatchExactGain) {
  // The exact tier of the incremental engine prices every relative gain
  // from these columns, so identity must survive on_commit maintenance,
  // from an empty start and from a seeded one.
  {
    SCOPED_TRACE("empty start");
    replay_relative_columns(0, 10);
  }
  {
    SCOPED_TRACE("seeded start");
    replay_relative_columns(4, 6);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the error-gated fallback keeps the final cost within 1%.

TEST(PlacementTierGateTest, TieredFinalCostWithinOnePercentOfExact) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto t = TestSystem::make(
        3 + seed % 6, 4 + seed % 5, 1 + seed % 3, 100,
        0.05 + 0.03 * static_cast<double>(seed % 7),
        2.0 + static_cast<double>(seed % 9), seed);
    const auto exact = hybrid_greedy(*t.system);
    ASSERT_GT(exact.predicted_total_cost, 0.0);
    for (const PlacementModel tier :
         {PlacementModel::kClosedForm, PlacementModel::kChe}) {
      SCOPED_TRACE(placement_model_name(tier));
      HybridGreedyOptions options;
      options.placement_model = tier;
      const auto tiered = hybrid_greedy(*t.system, options);
      EXPECT_LE(
          std::abs(tiered.predicted_total_cost - exact.predicted_total_cost),
          0.01 * exact.predicted_total_cost);
    }
  }
}

TEST(PlacementTierGateTest, TierCountersExportedOnlyWhenTiered) {
  const auto t = TestSystem::make();
  cdn::obs::Registry exact_registry;
  HybridGreedyOptions exact_options;
  exact_options.metrics = &exact_registry;
  hybrid_greedy(*t.system, exact_options);
  EXPECT_EQ(exact_registry.find_counter("placement/hybrid/tier_evaluations"),
            nullptr);

  cdn::obs::Registry che_registry;
  HybridGreedyOptions che_options;
  che_options.placement_model = PlacementModel::kChe;
  che_options.metrics = &che_registry;
  hybrid_greedy(*t.system, che_options);
  const auto* evals =
      che_registry.find_counter("placement/hybrid/tier_evaluations");
  ASSERT_NE(evals, nullptr);
  EXPECT_GT(evals->value(), 0u);
  EXPECT_NE(che_registry.find_counter("placement/hybrid/tier_fallbacks"),
            nullptr);
  EXPECT_NE(che_registry.find_counter("placement/hybrid/tier_margin_hits"),
            nullptr);
  EXPECT_NE(che_registry.find_counter("model/che/fixed_point_iterations"),
            nullptr);
}

TEST(PlacementTierGateTest, ExactTierIsByteIdenticalToDefaultRun) {
  // --placement-model=exact must leave the engine untouched: identical
  // placement, trajectory and predictions.
  const auto t = TestSystem::make();
  const auto a = hybrid_greedy(*t.system);
  HybridGreedyOptions explicit_exact;
  explicit_exact.placement_model = PlacementModel::kExact;
  const auto b = hybrid_greedy(*t.system, explicit_exact);
  EXPECT_EQ(a.predicted_total_cost, b.predicted_total_cost);
  EXPECT_EQ(a.replicas_created, b.replicas_created);
  ASSERT_EQ(a.cost_trajectory.size(), b.cost_trajectory.size());
  for (std::size_t k = 0; k < a.cost_trajectory.size(); ++k) {
    EXPECT_EQ(a.cost_trajectory[k], b.cost_trajectory[k]);
  }
}

// ---------------------------------------------------------------------------
// CLI parsing + coherence note.

TEST(PlacementModelParseTest, RoundTripsEveryTier) {
  for (const PlacementModel tier :
       {PlacementModel::kExact, PlacementModel::kClosedForm,
        PlacementModel::kChe}) {
    EXPECT_EQ(parse_placement_model(placement_model_name(tier)), tier);
  }
  EXPECT_EQ(parse_placement_model("exact"), PlacementModel::kExact);
  EXPECT_EQ(parse_placement_model("closed-form"), PlacementModel::kClosedForm);
  EXPECT_EQ(parse_placement_model("che"), PlacementModel::kChe);
}

TEST(PlacementModelParseTest, RejectsUnknownNames) {
  EXPECT_THROW(parse_placement_model(""), PreconditionError);
  EXPECT_THROW(parse_placement_model("closedform"), PreconditionError);
  EXPECT_THROW(parse_placement_model("Che"), PreconditionError);
  EXPECT_THROW(parse_placement_model("empirical"), PreconditionError);
}

TEST(PlacementModelParseTest, MismatchNoteFlagsIncoherentPairs) {
  using cdn::core::model_tier_mismatch_note;
  // Coherent pairs are silent.
  EXPECT_EQ(model_tier_mismatch_note("empirical", "exact"), "");
  EXPECT_EQ(model_tier_mismatch_note("closed-form", "closed-form"), "");
  EXPECT_EQ(model_tier_mismatch_note("che", "che"), "");
  // Every incoherent pair produces a note naming both flags.
  for (const std::string hit : {"empirical", "closed-form", "che"}) {
    for (const std::string placement : {"exact", "closed-form", "che"}) {
      const std::string note = model_tier_mismatch_note(hit, placement);
      const bool coherent =
          (hit == "empirical" && placement == "exact") ||
          (hit == placement);
      if (coherent) {
        EXPECT_EQ(note, "") << hit << " / " << placement;
      } else {
        EXPECT_NE(note.find("--hit-model=" + hit), std::string::npos);
        EXPECT_NE(note.find("--placement-model=" + placement),
                  std::string::npos);
      }
    }
  }
}

}  // namespace
