// Adaptive replanning under demand drift — the dynamic side of the problem.
//
// Section 2.1 notes that replica "placement decisions should remain fairly
// static ... replica creation and migration incurs a high transfer cost",
// which is exactly why the paper pairs replication with caching.  The
// dynamic FAP literature it cites ([24, 28]) instead adapts the replica set
// online.  This module implements that comparator for the hybrid scheme:
// given an existing placement and NEW demand, it replans with the same
// model-driven benefit rule, but
//
//   * keeps existing replicas unless dropping them pays (hysteresis), and
//   * charges each new replica a transfer cost proportional to its bytes,
//     so marginal placements are suppressed.
//
// The flash-crowd example and bench_adaptive quantify how much replanning
// recovers vs a stale placement, and what the caches already absorbed.

#pragma once

#include "src/cdn/system.h"
#include "src/model/server_cache_state.h"
#include "src/obs/registry.h"
#include "src/placement/placement_result.h"

namespace cdn::placement {

struct AdaptiveOptions {
  /// Cost (in the objective's request*hop unit) charged per byte of a new
  /// replica transfer.  0 reduces to a fresh hybrid run seeded with the
  /// old replicas kept for free.
  double transfer_cost_per_byte = 0.0;

  /// A kept replica is dropped when its current benefit falls below this
  /// fraction of the drop's cache gain (hysteresis against flapping).
  double drop_hysteresis = 0.25;

  model::PbMode pb_mode = model::PbMode::kAtInit;

  /// Metric sink (non-owning; null = no instrumentation).  Emits drop/add
  /// phase timers and replica-churn gauges; the inner hybrid run logs under
  /// "<metrics_prefix>hybrid/".
  obs::Registry* metrics = nullptr;
  std::string metrics_prefix = "placement/adaptive/";
};

/// Statistics of one replanning step.
struct AdaptiveOutcome {
  PlacementResult result;
  std::size_t replicas_kept = 0;
  std::size_t replicas_added = 0;
  std::size_t replicas_dropped = 0;
  /// Bytes transferred to create the added replicas.
  std::uint64_t bytes_transferred = 0;
};

/// Replans the hybrid placement for `system` (carrying the NEW demand),
/// starting from `previous` (computed under the old demand).
AdaptiveOutcome adaptive_hybrid_replan(const sys::CdnSystem& system,
                                       const PlacementResult& previous,
                                       const AdaptiveOptions& options = {});

}  // namespace cdn::placement
