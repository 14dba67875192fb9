// Consistency-aware simulation: the Section 3.3 mechanisms made concrete.
//
// Compared to sim::simulate (which models staleness as the paper's flat
// lambda), this driver attaches a per-object modification process and
// per-server freshness tables, and implements TTL-based weak consistency
// or invalidation-based strong consistency.  Replicas are push-updated by
// the CDN and always fresh, matching the paper's assumption.
//
// The driver keeps its own request loop instead of going through the
// request kernel (request_kernel.h): a cache hit here depends on the
// per-object freshness tables and the modification clock, and may erase,
// revalidate or count a stale copy.  Folding that into serve() would make
// the kernel every engine runs branch on which caller it serves.

#pragma once

#include "src/sim/consistency.h"
#include "src/sim/simulator.h"

namespace cdn::sim {

struct ConsistencyReport {
  SimulationReport base;

  /// Requests served from cache with a copy older than its last
  /// modification (possible only under kTtl).
  std::uint64_t stale_served = 0;
  /// TTL-expired cache hits that were revalidated at the nearest copy.
  std::uint64_t validations = 0;
  /// Cache hits dropped because an invalidation had voided the copy
  /// (kInvalidation).
  std::uint64_t invalidation_misses = 0;

  /// Fraction of measured requests that returned stale content.
  double stale_ratio() const {
    return base.measured_requests
               ? static_cast<double>(stale_served) /
                     static_cast<double>(base.measured_requests)
               : 0.0;
  }
};

/// Runs the simulation under the given consistency mechanism.
/// kBernoulli delegates to sim::simulate (lambda comes from the catalog).
ConsistencyReport simulate_with_consistency(
    const sys::CdnSystem& system, const placement::PlacementResult& result,
    const SimulationConfig& sim_config,
    const ConsistencyConfig& consistency);

}  // namespace cdn::sim
