// The request kernel: the one definition of how the event engines serve
// and account a request.  Both the sequential engine (simulator.cpp) and
// the parallel sharded engine (shard_engine.cpp) run every request through
// serve_batch(), so replica/cache/redirect decisions, the lambda draw, the
// failover rules and all per-request accounting exist exactly once.
//
// serve<kFaults>() decides one request; the kFaults = false instantiation
// is the healthy hot loop and compiles no fault code.  A Tally accumulates
// the measured outcomes of one engine or shard.  Not part of the public
// sim API.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/cache_policy.h"
#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/placement/placement_result.h"
#include "src/sim/sim_internal.h"
#include "src/sim/simulator.h"
#include "src/util/cdf.h"
#include "src/util/rng.h"
#include "src/workload/request_stream.h"
#include "src/workload/site_catalog.h"

namespace cdn::sim::detail {

/// Run-constant inputs of serve(), shared read-only by every shard.
struct ServeInputs {
  ServeInputs(const sys::CdnSystem& system,
              const placement::PlacementResult& placement,
              const SimulationConfig& config)
      : result(placement),
        catalog(system.catalog()),
        latency(config.latency),
        uncacheable(config.staleness == StalenessMode::kUncacheable),
        site_lambda(system.site_count()) {
    // The exact doubles uncacheable_fraction returns, hoisted out of the
    // request loop, so the lambda draws stay bit-identical.
    for (std::size_t j = 0; j < site_lambda.size(); ++j) {
      site_lambda[j] =
          catalog.uncacheable_fraction(static_cast<workload::SiteId>(j));
    }
  }

  /// Enables the fault path: `timeline` is read at serve time, and every
  /// site's replica holders are precomputed for the health-masked lookup.
  void attach_faults(const fault::FaultTimeline& t) {
    timeline = &t;
    holders.resize(site_lambda.size());
    for (std::size_t j = 0; j < holders.size(); ++j) {
      holders[j] = result.placement.replicators(static_cast<sys::SiteIndex>(j));
    }
  }

  const placement::PlacementResult& result;
  const workload::SiteCatalog& catalog;
  const LatencyModel& latency;
  bool uncacheable;
  std::vector<double> site_lambda;
  const fault::FaultTimeline* timeline = nullptr;
  std::vector<std::vector<sys::ServerIndex>> holders;
};

/// What serve() decided for one request.
struct Outcome {
  double hops = 0.0;
  double latency_ms = 0.0;
  bool served_locally = false;
  bool cache_eligible = false;
  bool cache_hit = false;
  bool failed = false;
  /// Failed connection attempts before the request was served (or lost).
  std::uint32_t attempts = 0;
  obs::EventCause cause = obs::EventCause::kReplica;
  /// Where a redirected request landed: a holder server, -1 for the
  /// origin, -2 for nobody (the request failed).
  std::int32_t served_by = -2;
};

/// Serves one request arriving at first-hop server `sid`, whose cache is
/// `cache`.  A replicated site or a cache hit stays local; anything else
/// pays the redirect cost.  RNG contract: exactly one lambda bernoulli per
/// request that reaches a live first hop without a local replica, nothing
/// otherwise — the draw order that keeps every engine decomposition exact.
///
/// With kFaults: a dead first hop fails over to the nearest live holder
/// after one timed-out attempt; a dead precomputed target costs one attempt
/// before the health-masked re-route; no live copy fails the request.  A
/// miss only admits the object when a live source exists to fetch it from.
template <bool kFaults>
inline Outcome serve(const ServeInputs& in, cache::CachePolicy& cache,
                     util::Rng& lambda_rng, workload::ServerId sid,
                     workload::SiteId site_id, std::uint32_t rank) {
  const auto server = static_cast<sys::ServerIndex>(sid);
  const auto site = static_cast<sys::SiteIndex>(site_id);
  Outcome o;
  bool first_hop_up = true;
  if constexpr (kFaults) first_hop_up = in.timeline->server_up(sid);

  // The copy a redirected request lands on: the precomputed nearest one,
  // or (kFaults) the nearest live one after one failed attempt on a dead
  // first hop or target; nullopt when no live copy exists.
  const auto resolve = [&]() -> std::optional<sys::NearestCopy> {
    const sys::NearestCopy& pre = in.result.nearest.nearest(server, site);
    if constexpr (kFaults) {
      const bool pre_live = pre.at_primary ? in.timeline->origin_up(site_id)
                                           : in.timeline->server_up(pre.server);
      if (!first_hop_up || !pre_live) {
        ++o.attempts;
        return in.result.nearest.nearest_live(
            server, site, in.holders[site_id], in.timeline->server_up_mask(),
            in.timeline->origin_up(site_id));
      }
    }
    return pre;
  };
  const auto redirect_to = [&](const std::optional<sys::NearestCopy>& live,
                               obs::EventCause healthy_cause) {
    if (live) {
      o.hops = live->cost;
      o.cause = o.attempts > 0 ? obs::EventCause::kFailover : healthy_cause;
      o.served_by =
          live->at_primary ? -1 : static_cast<std::int32_t>(live->server);
    } else {
      o.failed = true;
      o.cause = obs::EventCause::kFailed;
    }
  };

  if (first_hop_up && in.result.placement.is_replicated(server, site)) {
    // Replicas are always consistent (the CDN pushes invalidations to
    // them); even flagged requests are served locally.
    o.served_locally = true;
  } else if (!first_hop_up) {
    // First-hop crash: the client's connection times out and the
    // redirector re-routes it to the nearest live copy.  The dead server's
    // warm cache and its replicas are unreachable.
    redirect_to(resolve(), obs::EventCause::kFailover);
  } else {
    const bool flagged = lambda_rng.bernoulli(in.site_lambda[site_id]);
    const cache::ObjectKey key = in.catalog.object_id(site_id, rank);
    const std::uint64_t bytes = in.catalog.object_bytes(site_id, rank);
    if (flagged && in.uncacheable) {
      // Never cached; straight to the nearest copy.
      redirect_to(resolve(), obs::EventCause::kUncacheable);
    } else if (flagged) {
      // kRefresh: must touch the remote copy; the (re-)fetched object stays
      // cached with updated recency.
      const auto live = resolve();
      if (live) cache.access(key, bytes);
      redirect_to(live, obs::EventCause::kStaleRefresh);
    } else {
      o.cache_eligible = true;
      // A hit never leaves the server, so it needs no liveness check; with
      // faults a miss is only admitted once a live source exists.
      o.cache_hit = kFaults ? cache.access_no_admit(key, bytes)
                            : cache.access(key, bytes);
      if (o.cache_hit) {
        o.served_locally = true;
        o.cause = obs::EventCause::kCacheHit;
      } else {
        const auto live = resolve();
        if (kFaults && live) cache.admit(key, bytes);
        redirect_to(live, obs::EventCause::kCacheMiss);
      }
    }
  }

  if constexpr (kFaults) {
    // A failed request reports the time wasted before giving up; it never
    // completes, so the tally keeps it out of the latency distribution.
    o.latency_ms =
        o.failed ? in.latency.retry_penalty_ms(o.attempts)
                 : in.latency.failover_latency_ms(
                       o.hops * in.timeline->latency_multiplier(sid),
                       o.attempts);
  } else {
    o.latency_ms = in.latency.latency_ms(o.hops);
  }
  return o;
}

/// Measured-request accounting of one engine (or one shard).  Every sum
/// accumulates in request order, floating-point sums included, so any
/// decomposition that serves the same requests in the same order produces
/// the same bits.
struct Tally {
  double hop_sum = 0.0;
  std::uint64_t local = 0;
  std::uint64_t eligible = 0;
  std::uint64_t eligible_hits = 0;
  std::uint64_t failed = 0;
  std::uint64_t failover = 0;
  std::uint64_t retries = 0;
  std::uint64_t slo_violations = 0;
  std::array<std::uint64_t, obs::kEventCauseCount> causes{};
  /// Completed requests' response times (exact or sketch, per engine).
  util::LatencyDistribution latency;

  /// SLO threshold in ms; 0 disables the violation count.
  double slo_ms = 0.0;
  /// Optional sinks: the current measured window, and per-server latency
  /// histograms indexed by global server id.
  WindowAccumulator* window = nullptr;
  obs::Histogram* const* server_latency = nullptr;

  template <bool kFaults>
  void add(const Outcome& o, workload::ServerId sid) {
    const bool failed_now = kFaults && o.failed;
    const bool failover_now = kFaults && o.attempts > 0 && !o.failed;
    if (failed_now) {
      ++failed;
    } else {
      latency.add(o.latency_ms);
    }
    hop_sum += o.hops;
    if (o.served_locally) ++local;
    if (o.cache_eligible) {
      ++eligible;
      if (o.cache_hit) ++eligible_hits;
    }
    if constexpr (kFaults) {
      if (failover_now) ++failover;
      retries += o.attempts;
    }
    if (slo_ms > 0.0 && (failed_now || o.latency_ms > slo_ms)) {
      ++slo_violations;
    }
    ++causes[static_cast<std::size_t>(o.cause)];
    if (server_latency != nullptr && !failed_now) {
      server_latency[sid]->observe(o.latency_ms);
    }
    if (window != nullptr) {
      WindowAccumulator& w = *window;
      ++w.requests;
      w.hops += o.hops;
      if (!failed_now) w.latency_ms += o.latency_ms;
      if (o.served_locally) ++w.local;
      if (o.cache_eligible) {
        ++w.eligible;
        if (o.cache_hit) ++w.eligible_hits;
      }
      if constexpr (kFaults) {
        if (failed_now) ++w.failed;
        if (failover_now) {
          ++w.failover;
          w.degraded_latency_ms += o.latency_ms;
        }
      }
    }
  }

  /// Folds `o` in after this tally (shard merge, fixed shard order).
  void merge(const Tally& o) {
    hop_sum += o.hop_sum;
    local += o.local;
    eligible += o.eligible;
    eligible_hits += o.eligible_hits;
    failed += o.failed;
    failover += o.failover;
    retries += o.retries;
    slo_violations += o.slo_violations;
    for (std::size_t c = 0; c < causes.size(); ++c) causes[c] += o.causes[c];
    latency.merge(o.latency);
  }

  /// Writes the summary fields of `report` over `measured` requests and
  /// moves the latency distribution into it.
  void finish(SimulationReport& report, std::uint64_t measured_requests) {
    const double measured = static_cast<double>(measured_requests);
    report.measured_requests = measured_requests;
    report.latency_cdf = std::move(latency);
    report.mean_latency_ms =
        report.latency_cdf.empty() ? 0.0 : report.latency_cdf.mean();
    report.mean_cost_hops = hop_sum / measured;
    report.local_ratio = static_cast<double>(local) / measured;
    report.cache_hit_ratio =
        eligible ? static_cast<double>(eligible_hits) /
                       static_cast<double>(eligible)
                 : 0.0;
    report.failed_requests = failed;
    report.failover_requests = failover;
    report.retry_attempts = retries;
    report.availability = 1.0 - static_cast<double>(failed) / measured;
    report.slo_violation_fraction =
        slo_ms > 0.0 ? static_cast<double>(slo_violations) / measured : 0.0;
  }

  /// Adds the cause counts to the registry's cause/ counters; the fault
  /// causes and fault/retries only exist when faults are active, keeping
  /// healthy snapshots free of them.
  void publish(obs::Registry& metrics, const std::string& prefix,
               bool faults_active) const {
    for (std::size_t c = 0; c < obs::kEventCauseCount; ++c) {
      const auto cause = static_cast<obs::EventCause>(c);
      if (!faults_active && cause >= obs::EventCause::kFailover) break;
      metrics.counter(prefix + "cause/" + obs::to_string(cause))
          .add(causes[c]);
    }
    if (faults_active) metrics.counter(prefix + "fault/retries").add(retries);
  }
};

/// Serves `batch` (requests t0, t0 + 1, ... of the run) in order.
/// `caches` is indexed by global server id; `tally` is null during warm-up
/// (served, not measured); `sink` samples every request when set.
template <bool kFaults>
inline void serve_batch(const ServeInputs& in,
                        cache::CachePolicy* const* caches,
                        util::Rng& lambda_rng,
                        const workload::RequestBatch& batch, Tally* tally,
                        obs::TraceSink* sink, std::uint64_t t0) {
  const std::size_t count = batch.size();
  for (std::size_t i = 0; i < count; ++i) {
    const workload::ServerId sid = batch.server[i];
    const workload::SiteId site = batch.site[i];
    const std::uint32_t rank = batch.rank[i];
    const Outcome o =
        serve<kFaults>(in, *caches[sid], lambda_rng, sid, site, rank);
    if (tally != nullptr) tally->add<kFaults>(o, sid);
    if (sink != nullptr && sink->should_sample()) {
      obs::TraceEvent event;
      event.t = t0 + i;
      event.server = sid;
      event.site = site;
      event.rank = rank;
      event.cause = o.cause;
      event.measured = tally != nullptr;
      event.hops = o.hops;
      event.latency_ms = o.latency_ms;
      event.served_by =
          o.served_locally ? static_cast<std::int32_t>(sid) : o.served_by;
      sink->record(event);
    }
  }
}

}  // namespace cdn::sim::detail
