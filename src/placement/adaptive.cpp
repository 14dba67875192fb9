#include "src/placement/adaptive.h"

#include "src/obs/scoped_timer.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/model_support.h"
#include "src/util/error.h"

namespace cdn::placement {

namespace {

/// Marginal benefit of KEEPING replica (server, site): the Figure 2 benefit
/// it would have if it were a fresh candidate in the placement without it.
double keep_benefit(const sys::CdnSystem& system, const ModelContext& context,
                    sys::ReplicaPlacement& placement,
                    sys::ServerIndex server, sys::SiteIndex site,
                    std::vector<double>& hit) {
  // Temporarily remove the replica and evaluate it as a candidate.
  placement.remove(server, site);
  sys::NearestReplicaIndex nearest(system.distances(), placement);
  const auto state = context.make_state(server, &placement);
  // Refresh the server's hit row for the without-replica state.
  const std::size_t m = system.site_count();
  std::vector<double> saved(hit.begin() + static_cast<std::ptrdiff_t>(
                                               server * m),
                            hit.begin() + static_cast<std::ptrdiff_t>(
                                              (server + 1) * m));
  for (std::size_t j = 0; j < m; ++j) {
    hit[server * m + j] = state.hit_ratio(static_cast<std::uint32_t>(j));
  }
  const double b = hybrid_candidate_benefit(system, placement, nearest, state,
                                            hit, server, site);
  // Restore.
  std::copy(saved.begin(), saved.end(),
            hit.begin() + static_cast<std::ptrdiff_t>(server * m));
  placement.add(server, site);
  return b;
}

}  // namespace

AdaptiveOutcome adaptive_hybrid_replan(const sys::CdnSystem& system,
                                       const PlacementResult& previous,
                                       const AdaptiveOptions& options) {
  CDN_EXPECT(options.transfer_cost_per_byte >= 0.0,
             "transfer cost must be non-negative");
  CDN_EXPECT(options.drop_hysteresis >= 0.0,
             "hysteresis must be non-negative");
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  CDN_EXPECT(previous.placement.server_count() == n &&
                 previous.placement.site_count() == m,
             "previous placement dimensions must match the system");

  const std::size_t previous_count = previous.placement.replica_count();
  std::size_t replicas_dropped = 0;

  obs::Registry* const metrics = options.metrics;
  const std::string& pfx = options.metrics_prefix;
  obs::TimerStat* const t_drop =
      metrics ? &metrics->timer(pfx + "phase/drop") : nullptr;
  obs::TimerStat* const t_add =
      metrics ? &metrics->timer(pfx + "phase/add") : nullptr;
  obs::ScopedTimer drop_timer(t_drop);

  // --- Drop phase: evict replicas whose keep-benefit under the NEW demand
  // is clearly negative (beyond the hysteresis band). ---
  ModelContext context(system, model::PbMode::kPerIteration);
  sys::ReplicaPlacement working(system.server_storage(), system.site_bytes());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto server = static_cast<sys::ServerIndex>(i);
      const auto site = static_cast<sys::SiteIndex>(j);
      if (previous.placement.is_replicated(server, site)) {
        working.add(server, site);
      }
    }
  }

  bool dropped_any = true;
  while (dropped_any) {
    dropped_any = false;
    // Hit matrix consistent with the current working placement.
    const auto states = context.make_states(&working);
    std::vector<double> hit = modeled_hit_matrix(states);
    double worst = 0.0;
    sys::ServerIndex worst_server = 0;
    sys::SiteIndex worst_site = 0;
    bool found = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        const auto server = static_cast<sys::ServerIndex>(i);
        const auto site = static_cast<sys::SiteIndex>(j);
        if (!working.is_replicated(server, site)) continue;
        const double b =
            keep_benefit(system, context, working, server, site, hit);
        // Hysteresis: require the margin to be clearly negative relative to
        // the traffic the replica still serves.
        const double local_value =
            system.demand().requests(server, site);
        if (b < -options.drop_hysteresis * local_value &&
            (!found || b < worst)) {
          worst = b;
          worst_server = server;
          worst_site = site;
          found = true;
        }
      }
    }
    if (found) {
      working.remove(worst_server, worst_site);
      ++replicas_dropped;
      dropped_any = true;
    }
  }

  drop_timer.stop();

  // --- Add phase: hybrid greedy seeded with the kept replicas, charging
  // new replicas their transfer cost. ---
  obs::ScopedTimer add_timer(t_add);
  HybridGreedyOptions greedy;
  greedy.pb_mode = options.pb_mode;
  greedy.seed = &working;
  greedy.add_cost_per_byte = options.transfer_cost_per_byte;
  greedy.metrics = metrics;
  greedy.metrics_prefix = pfx + "hybrid/";
  AdaptiveOutcome outcome{.result = hybrid_greedy(system, greedy)};
  outcome.result.algorithm = "adaptive-hybrid";
  add_timer.stop();
  outcome.replicas_dropped = replicas_dropped;
  outcome.replicas_kept = previous_count - replicas_dropped;

  outcome.replicas_added =
      outcome.result.placement.replica_count() - outcome.replicas_kept;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto server = static_cast<sys::ServerIndex>(i);
      const auto site = static_cast<sys::SiteIndex>(j);
      if (outcome.result.placement.is_replicated(server, site) &&
          !working.is_replicated(server, site)) {
        outcome.bytes_transferred += system.site_bytes()[j];
      }
    }
  }

  if (metrics != nullptr) {
    metrics->gauge(pfx + "replicas_kept")
        .set(static_cast<double>(outcome.replicas_kept));
    metrics->gauge(pfx + "replicas_added")
        .set(static_cast<double>(outcome.replicas_added));
    metrics->gauge(pfx + "replicas_dropped")
        .set(static_cast<double>(outcome.replicas_dropped));
    metrics->gauge(pfx + "bytes_transferred")
        .set(static_cast<double>(outcome.bytes_transferred));
  }
  return outcome;
}

}  // namespace cdn::placement
