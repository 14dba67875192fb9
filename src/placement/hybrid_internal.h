// Internal glue of the hybrid-greedy engine, also used by the Figure-2
// oracle in tests/reference_placement.*.  Not part of the public placement
// API.

#pragma once

#include <vector>

#include "src/model/server_cache_state.h"
#include "src/placement/hybrid_greedy.h"
#include "src/util/error.h"

namespace cdn::placement::detail {

/// Lazy-heap engine behind hybrid_greedy(): candidates keep their cached
/// benefits until a commit changes one of their inputs; only the
/// invalidated set is re-evaluated.  Byte-identical to the Figure-2 full
/// re-evaluation loop (tests/reference_placement.*) in placement, cost
/// trajectory and commit order.
PlacementResult hybrid_greedy_incremental(const sys::CdnSystem& system,
                                          const HybridGreedyOptions& options);

/// The cache-penalty term of the canonical benefit (lines 10-13), exactly
/// as hybrid_candidate_benefit_parts accumulates it.  When `terms` is
/// non-null it receives the per-site contributions (length M, zero for
/// skipped sites), letting the incremental engine repair a single changed
/// term and re-sum instead of re-deriving every what-if hit ratio.
double hybrid_cache_penalty(const sys::CdnSystem& system,
                            const sys::NearestReplicaIndex& nearest,
                            const model::ServerCacheState& state,
                            const std::vector<double>& hit,
                            sys::ServerIndex server, sys::SiteIndex site,
                            double* terms);

/// The relative-gain term (lines 14-17), exactly as the canonical function
/// accumulates it.  `miss_flow` may be null (elementwise fallback).
double hybrid_relative_gain(const sys::CdnSystem& system,
                            const sys::ReplicaPlacement& placement,
                            const sys::NearestReplicaIndex& nearest,
                            const std::vector<double>& hit,
                            const double* miss_flow, sys::ServerIndex server,
                            sys::SiteIndex site);

/// Materialises options.seed (if any) into `placement` and `states`, in
/// row-major order.
inline void apply_seed(const sys::CdnSystem& system,
                       const HybridGreedyOptions& options,
                       sys::ReplicaPlacement& placement,
                       std::vector<model::ServerCacheState>& states) {
  if (options.seed == nullptr) return;
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  CDN_EXPECT(
      options.seed->server_count() == n && options.seed->site_count() == m,
      "seed placement dimensions must match the system");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto server = static_cast<sys::ServerIndex>(i);
      const auto site = static_cast<sys::SiteIndex>(j);
      if (options.seed->is_replicated(server, site)) {
        placement.add(server, site);
        states[i].replicate(static_cast<std::uint32_t>(j));
      }
    }
  }
}

}  // namespace cdn::placement::detail
