// Engine equivalence: the product's incremental placement engines must
// produce byte-identical placements, cost trajectories and commit orders to
// the Figure-2 full re-evaluation oracles in tests/reference_placement.*.
// Every double is compared with EXPECT_EQ (exact), not EXPECT_NEAR — the
// contract is bit-identity, not tolerance.
//
// The commit order comes from the engine's iteration log; its "candidates"
// and "eval_ms" columns are not compared: the engine legitimately evaluates
// fewer candidates per commit (that is the whole point) and wall-clock
// differs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/registry.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "tests/reference_placement.h"
#include "tests/test_support.h"

namespace {

using cdn::placement::greedy_global;
using cdn::placement::GreedyGlobalOptions;
using cdn::placement::hybrid_greedy;
using cdn::placement::HybridGreedyOptions;
using cdn::placement::PlacementResult;
using cdn::test::reference_greedy_global;
using cdn::test::reference_hybrid_greedy;
using cdn::test::ReferencePlacement;
using cdn::test::TestSystem;

struct EngineRun {
  PlacementResult result;
  std::vector<std::string> log_columns;
  std::vector<std::vector<double>> log_rows;
  std::uint64_t candidates = 0;
};

EngineRun read_run(PlacementResult result, const cdn::obs::Registry& registry,
                   const std::string& prefix) {
  EngineRun run{std::move(result)};
  if (const auto* log = registry.find_table(prefix + "iterations")) {
    run.log_columns = log->columns();
    run.log_rows = log->rows();
  }
  if (const auto* c = registry.find_counter(prefix + "candidates_evaluated")) {
    run.candidates = c->value();
  }
  return run;
}

EngineRun run_hybrid(const cdn::sys::CdnSystem& system,
                     HybridGreedyOptions options) {
  cdn::obs::Registry registry;
  options.metrics = &registry;
  return read_run(hybrid_greedy(system, options), registry,
                  "placement/hybrid/");
}

EngineRun run_greedy_global(const cdn::sys::CdnSystem& system,
                            GreedyGlobalOptions options) {
  cdn::obs::Registry registry;
  options.metrics = &registry;
  return read_run(greedy_global(system, options), registry,
                  "placement/greedy_global/");
}

void expect_equivalent(const cdn::sys::CdnSystem& system,
                       const ReferencePlacement& ref, const EngineRun& inc) {
  EXPECT_EQ(ref.result.replicas_created, inc.result.replicas_created);
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto server = static_cast<cdn::sys::ServerIndex>(i);
      const auto site = static_cast<cdn::sys::SiteIndex>(j);
      EXPECT_EQ(ref.result.placement.is_replicated(server, site),
                inc.result.placement.is_replicated(server, site))
          << "placement cell (" << i << ", " << j << ")";
    }
  }
  ASSERT_EQ(ref.result.cost_trajectory.size(),
            inc.result.cost_trajectory.size());
  for (std::size_t k = 0; k < ref.result.cost_trajectory.size(); ++k) {
    EXPECT_EQ(ref.result.cost_trajectory[k], inc.result.cost_trajectory[k])
        << "cost trajectory entry " << k << " is not bit-identical";
  }
  EXPECT_EQ(ref.result.predicted_total_cost, inc.result.predicted_total_cost);
  EXPECT_EQ(ref.result.predicted_cost_per_request,
            inc.result.predicted_cost_per_request);
  ASSERT_EQ(ref.result.modeled_hit.size(), inc.result.modeled_hit.size());
  for (std::size_t k = 0; k < ref.result.modeled_hit.size(); ++k) {
    EXPECT_EQ(ref.result.modeled_hit[k], inc.result.modeled_hit[k])
        << "modeled hit entry " << k;
  }

  // Commit order and per-commit decomposition, from the iteration log.
  ASSERT_EQ(ref.commits.size(), inc.log_rows.size());
  const auto column = [&](const std::string& name) {
    const auto it =
        std::find(inc.log_columns.begin(), inc.log_columns.end(), name);
    return it == inc.log_columns.end()
               ? inc.log_columns.size()
               : static_cast<std::size_t>(it - inc.log_columns.begin());
  };
  const std::size_t server = column("server");
  const std::size_t site = column("site");
  const std::size_t benefit = column("benefit");
  const std::size_t cost_after = column("cost_after");
  ASSERT_LT(std::max({server, site, benefit, cost_after}),
            inc.log_columns.size());
  // Only the hybrid log carries the Figure-2 decomposition.
  const std::size_t local = column("local_gain");
  const std::size_t relative = column("relative_gain");
  const std::size_t penalty = column("cache_penalty");
  const bool hybrid = local < inc.log_columns.size();
  for (std::size_t r = 0; r < ref.commits.size(); ++r) {
    const auto& want = ref.commits[r];
    const auto& row = inc.log_rows[r];
    SCOPED_TRACE("commit " + std::to_string(r));
    EXPECT_EQ(row[server], static_cast<double>(want.server));
    EXPECT_EQ(row[site], static_cast<double>(want.site));
    EXPECT_EQ(row[benefit], want.benefit);
    EXPECT_EQ(row[cost_after], want.cost_after);
    if (hybrid) {
      EXPECT_EQ(row[local], want.parts.local_gain);
      EXPECT_EQ(row[relative], want.parts.relative_gain);
      EXPECT_EQ(row[penalty], want.parts.cache_penalty);
    }
  }
}

void expect_hybrid_matches_oracle(const cdn::sys::CdnSystem& system,
                                  const HybridGreedyOptions& options = {}) {
  const ReferencePlacement ref = reference_hybrid_greedy(system, options);
  const EngineRun inc = run_hybrid(system, options);
  expect_equivalent(system, ref, inc);
  EXPECT_GT(ref.result.replicas_created, 0u)
      << "vacuous comparison: no replicas committed";
  EXPECT_LE(inc.candidates, ref.candidates)
      << "the engine evaluated more candidates than the full scan";
}

TEST(PlacementEngineEquivalenceTest, HybridDefaultOptions) {
  const auto t = TestSystem::make();
  expect_hybrid_matches_oracle(*t.system);
}

TEST(PlacementEngineEquivalenceTest, HybridMaxReplicasCaps) {
  const auto t = TestSystem::make();
  for (const std::size_t cap : {std::size_t{1}, std::size_t{3}}) {
    HybridGreedyOptions options;
    options.max_replicas = cap;
    expect_hybrid_matches_oracle(*t.system, options);
  }
}

TEST(PlacementEngineEquivalenceTest, HybridSeededPlacement) {
  const auto t = TestSystem::make();
  HybridGreedyOptions seed_options;
  seed_options.max_replicas = 2;
  const auto seed = hybrid_greedy(*t.system, seed_options);
  ASSERT_GT(seed.replicas_created, 0u);
  HybridGreedyOptions options;
  options.seed = &seed.placement;
  expect_hybrid_matches_oracle(*t.system, options);
}

TEST(PlacementEngineEquivalenceTest, HybridAddCostPerByte) {
  const auto t = TestSystem::make();
  HybridGreedyOptions options;
  options.add_cost_per_byte = 1e-9;
  expect_equivalent(*t.system, reference_hybrid_greedy(*t.system, options),
                    run_hybrid(*t.system, options));
}

TEST(PlacementEngineEquivalenceTest, HybridPerIterationPb) {
  const auto t = TestSystem::make();
  HybridGreedyOptions options;
  options.pb_mode = cdn::model::PbMode::kPerIteration;
  expect_hybrid_matches_oracle(*t.system, options);
}

TEST(PlacementEngineEquivalenceTest, HybridTinyStorageNoReplicas) {
  // Degenerate case: nothing fits, so the engine must report an empty
  // placement with the oracle's pure-caching starting cost.
  const auto t = TestSystem::make(4, 6, 2, 100, 0.001);
  const ReferencePlacement ref = reference_hybrid_greedy(*t.system);
  EXPECT_EQ(ref.result.replicas_created, 0u);
  expect_equivalent(*t.system, ref, run_hybrid(*t.system, {}));
}

TEST(PlacementEngineEquivalenceTest, HeapMetricsAndClampCounterExported) {
  const auto t = TestSystem::make();
  cdn::obs::Registry registry;
  HybridGreedyOptions options;
  options.metrics = &registry;
  hybrid_greedy(*t.system, options);

  EXPECT_NE(registry.find_counter("placement/hybrid/heap/reevaluations"),
            nullptr);
  EXPECT_NE(registry.find_counter("placement/hybrid/heap/invalidations"),
            nullptr);
  EXPECT_NE(registry.find_counter("placement/hybrid/heap/stale_discarded"),
            nullptr);
  EXPECT_NE(registry.find_gauge("placement/hybrid/heap/peak_size"), nullptr);
  EXPECT_NE(
      registry.find_series("placement/hybrid/heap/invalidated_per_commit"),
      nullptr);
  EXPECT_NE(registry.find_counter("model/curve_clamped"), nullptr);

  // The engine must never evaluate more candidates than the full scan (the
  // scaling bench asserts the >= 10x reduction at size).
  const auto* evals =
      registry.find_counter("placement/hybrid/candidates_evaluated");
  ASSERT_NE(evals, nullptr);
  EXPECT_LE(evals->value(), reference_hybrid_greedy(*t.system).candidates);
}

TEST(PlacementEngineEquivalenceTest, GreedyGlobalDefaultOptions) {
  const auto t = TestSystem::make();
  const ReferencePlacement ref =
      reference_greedy_global(*t.system, t.system->server_storage());
  expect_equivalent(*t.system, ref, run_greedy_global(*t.system, {}));
  EXPECT_GT(ref.result.replicas_created, 0u);
}

TEST(PlacementEngineEquivalenceTest, GreedyGlobalMaxReplicasCap) {
  const auto t = TestSystem::make();
  GreedyGlobalOptions options;
  options.max_replicas = 3;
  const ReferencePlacement ref =
      reference_greedy_global(*t.system, t.system->server_storage(), 3);
  const EngineRun inc = run_greedy_global(*t.system, options);
  expect_equivalent(*t.system, ref, inc);
  EXPECT_LE(inc.candidates, ref.candidates)
      << "the engine evaluated more candidates than the full scan";
}

TEST(PlacementEngineEquivalenceTest, GreedyGlobalRandomizedSystems) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto t = TestSystem::make(3 + seed % 6, 4 + seed % 5, 1 + seed % 3,
                                    100, 0.05 + 0.03 * static_cast<double>(
                                                           seed % 7),
                                    2.0 + static_cast<double>(seed % 9),
                                    seed);
    expect_equivalent(
        *t.system,
        reference_greedy_global(*t.system, t.system->server_storage()),
        run_greedy_global(*t.system, {}));
  }
}

TEST(PlacementEngineEquivalenceTest, HybridRandomizedSystems) {
  // Property check: bit-identity must hold across topologies, storage
  // pressures and demand skews, not just the default fixture.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::size_t servers = 3 + seed % 6;              // 3..8
    const std::size_t low_sites = 4 + seed % 5;            // 4..8
    const std::size_t high_sites = 1 + seed % 3;           // 1..3
    const double storage_fraction = 0.05 + 0.03 * static_cast<double>(
                                               seed % 7);  // 0.05..0.23
    const double primary_hops = 2.0 + static_cast<double>(seed % 9);
    const auto t = TestSystem::make(servers, low_sites, high_sites, 100,
                                    storage_fraction, primary_hops, seed);
    HybridGreedyOptions options;
    if (seed % 3 == 0) options.pb_mode = cdn::model::PbMode::kPerIteration;
    if (seed % 4 == 0) options.add_cost_per_byte = 1e-10;
    expect_equivalent(*t.system, reference_hybrid_greedy(*t.system, options),
                      run_hybrid(*t.system, options));
  }
  // One system large enough that a commit's invalidation batch spans many
  // dynamically scheduled chunks, so concurrent candidates share one
  // server's ServerCacheState (the sanitizer job runs this under TSan).
  SCOPED_TRACE("24 servers x 40 sites");
  const auto t = TestSystem::make(24, 32, 8, 100, 0.1, 8.0, 5);
  const EngineRun inc = run_hybrid(*t.system, {});
  expect_equivalent(*t.system, reference_hybrid_greedy(*t.system), inc);
  const auto col = std::find(inc.log_columns.begin(), inc.log_columns.end(),
                             "candidates");
  ASSERT_NE(col, inc.log_columns.end());
  const auto c = static_cast<std::size_t>(col - inc.log_columns.begin());
  // Row r > 0 logs the live candidates re-priced by commit r - 1's batch.
  double widest = 0.0;
  for (std::size_t r = 1; r < inc.log_rows.size(); ++r) {
    widest = std::max(widest, inc.log_rows[r][c]);
  }
  EXPECT_GE(widest, 128.0) << "batches too small to span several chunks";
}

}  // namespace
