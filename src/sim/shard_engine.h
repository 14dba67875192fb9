// Parallel sharded simulation engine.
//
// The reference stream is i.i.d. (Section 3.2), so it decomposes exactly by
// first-hop server: partition the servers into S shards, split the total
// request count multinomially over the shards' demand masses, and run each
// shard's conditional stream against shard-local state (caches, a Tally
// with its latency sketch, window accumulators) on a thread pool.  Requests
// are served and accounted by the shared request kernel
// (request_kernel.h), exactly as in the sequential engine; this file only
// plans shards, chunks their streams, places barriers and merges.  Shard
// results merge in fixed shard-index order, so the report is a
// deterministic function of (seed, shards) — the thread count only changes
// the execution schedule, never a result bit.
//
// Healthy runs only: a fault schedule or a trace sink needs the global
// request clock and stays on the sequential engine (simulate() dispatches).

#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/simulator.h"
#include "src/workload/demand.h"

namespace cdn::sim {

/// First-hop partition of one parallel run.
struct ShardPlan {
  /// servers[s] = ascending global ids owned by shard s (round-robin:
  /// server i belongs to shard i % S, so the local index is i / S).
  std::vector<std::vector<workload::ServerId>> servers;
  /// requests[s] = synthetic requests shard s generates; sums to the run's
  /// total.  An exact multinomial sample over the shards' demand masses.
  std::vector<std::uint64_t> requests;
};

/// Splits `total` requests over `shards` first-hop shards of the demand
/// matrix.  Deterministic in (seed, shards).
ShardPlan plan_shards(const workload::DemandMatrix& demand,
                      std::uint64_t total, std::size_t shards,
                      std::uint64_t seed);

/// Shard count of a run: the configured value, or 4 shards per thread when
/// auto (0) — enough slack for even static load balance — capped at the
/// server count (a shard needs at least one first-hop server).
std::size_t resolve_shard_count(std::size_t configured, std::size_t threads,
                                std::size_t server_count);

/// Runs the sharded engine.  Called by simulate() when threads > 1 and the
/// run is healthy + synthetic; not part of the public API.
SimulationReport simulate_parallel(const sys::CdnSystem& system,
                                   const placement::PlacementResult& result,
                                   const SimulationConfig& config,
                                   std::size_t threads);

}  // namespace cdn::sim
