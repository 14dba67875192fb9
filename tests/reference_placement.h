// Figure-2 placement oracles: the hybrid greedy and greedy-global
// replication written as the paper states them.  Every iteration
// re-evaluates every feasible (server, site) candidate from scratch and
// commits the best one by (benefit desc, server asc, site asc).  The
// product's incremental engines (src/placement) must reproduce these
// placements, cost trajectories and commit orders bit for bit
// (placement_engine_equivalence_test); bench_placement_scaling times the
// hybrid oracle as the baseline of its speedup.  No product target links
// this code.

#pragma once

#include <cstdint>
#include <vector>

#include "src/cdn/system.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/placement_result.h"

namespace cdn::test {

/// One committed replica, in commit order.
struct ReferenceCommit {
  sys::ServerIndex server = 0;
  sys::SiteIndex site = 0;
  /// Benefit the candidate won with (net of any add-cost charge).
  double benefit = 0.0;
  /// Figure-2 terms of the winner against the pre-commit state (hybrid
  /// only; all zero for greedy-global).
  placement::HybridBenefitParts parts;
  /// Model cost D after the commit.
  double cost_after = 0.0;
};

struct ReferencePlacement {
  placement::PlacementResult result;
  std::vector<ReferenceCommit> commits;
  /// Candidate benefit evaluations over the whole run.
  std::uint64_t candidates = 0;
};

/// The hybrid greedy under the exact model tier.  Honours pb_mode, seed,
/// max_replicas and add_cost_per_byte; placement_model must be kExact;
/// metrics and spans are ignored.
ReferencePlacement reference_hybrid_greedy(
    const sys::CdnSystem& system,
    const placement::HybridGreedyOptions& options = {});

/// Greedy-global replication within the given per-server replica budgets,
/// stopping after `max_replicas` commits (0 = unlimited).
ReferencePlacement reference_greedy_global(
    const sys::CdnSystem& system,
    const std::vector<std::uint64_t>& replica_budgets,
    std::size_t max_replicas = 0);

}  // namespace cdn::test
