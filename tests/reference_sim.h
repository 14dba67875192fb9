// Scalar reference simulator: the per-request loop the sequential engine is
// checked against.  One request at a time, fault state advanced before
// every request, written for clarity rather than speed, and computing only
// the SimulationReport — no metrics, trace sinks, checkpoints or progress.
// The engine's chunked loop and shared request kernel must reproduce its
// report bit for bit (sim_batch_parity_test).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/cache/cache_factory.h"
#include "src/cdn/system.h"
#include "src/fault/fault_schedule.h"
#include "src/placement/placement_result.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/workload/request_stream.h"

namespace cdn::test {

inline sim::SimulationReport reference_simulate(
    const sys::CdnSystem& system, const placement::PlacementResult& result,
    const sim::SimulationConfig& config) {
  const auto& catalog = system.catalog();
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();

  std::vector<std::unique_ptr<cache::CachePolicy>> caches;
  for (std::size_t i = 0; i < n; ++i) {
    caches.push_back(cache::make_cache(
        config.policy, result.cache_bytes(static_cast<sys::ServerIndex>(i))));
  }
  workload::RequestStream stream(catalog, system.demand(), config.seed);
  util::Rng lambda_rng(config.seed ^ 0x5bd1e995u);
  util::Rng surge_rng(config.seed ^ 0x9e3779b9u);

  const std::uint64_t total = config.total_requests;
  const auto warmup = static_cast<std::uint64_t>(
      config.warmup_fraction * static_cast<double>(total));

  const bool faults = config.faults != nullptr && !config.faults->empty();
  std::optional<fault::FaultTimeline> timeline;
  std::vector<std::vector<sys::ServerIndex>> holders(m);
  if (faults) {
    timeline.emplace(*config.faults, n, m);
    for (std::size_t j = 0; j < m; ++j) {
      holders[j] = result.placement.replicators(static_cast<sys::SiteIndex>(j));
    }
  }

  sim::SimulationReport report;
  report.total_requests = total;
  double hop_sum = 0.0;
  std::uint64_t local = 0, eligible = 0, eligible_hits = 0;
  std::uint64_t failed_total = 0, failover_total = 0, retries_total = 0;
  std::uint64_t slo_violations = 0;

  for (std::uint64_t t = 0; t < total; ++t) {
    if (t == warmup) {
      for (auto& c : caches) c->reset_stats();
    }
    if (faults && timeline->advance(t)) {
      for (const std::uint32_t s : timeline->just_recovered()) {
        caches[s]->clear();
        ++report.cold_restarts;
      }
    }
    workload::Request req = stream.next();
    if (faults && timeline->any_surge_active()) {
      const double bound = timeline->max_demand_multiplier();
      while (surge_rng.uniform() * bound >
             timeline->demand_multiplier(req.site)) {
        req = stream.next();
      }
    }
    const auto server = static_cast<sys::ServerIndex>(req.server);
    const auto site = static_cast<sys::SiteIndex>(req.site);
    cache::CachePolicy& cache = *caches[server];
    const cache::ObjectKey key = catalog.object_id(req.site, req.rank);
    const std::uint64_t bytes = catalog.object_bytes(req.site, req.rank);

    double hops = 0.0;
    bool served_locally = false;
    bool cache_eligible = false;
    bool cache_hit = false;
    bool failed = false;
    std::uint32_t attempts = 0;
    const bool first_hop_up = !faults || timeline->server_up(req.server);
    const auto find_live = [&] {
      return result.nearest.nearest_live(server, site, holders[req.site],
                                         timeline->server_up_mask(),
                                         timeline->origin_up(req.site));
    };
    // Nearest copy, or with faults the nearest live one after one failed
    // attempt on a dead target.
    const auto resolve = [&]() -> std::optional<sys::NearestCopy> {
      const sys::NearestCopy& pre = result.nearest.nearest(server, site);
      if (!faults) return pre;
      const bool live = pre.at_primary ? timeline->origin_up(req.site)
                                       : timeline->server_up(pre.server);
      if (live) return pre;
      ++attempts;
      return find_live();
    };
    const auto redirect_to = [&](const std::optional<sys::NearestCopy>& c) {
      if (c) {
        hops = c->cost;
      } else {
        failed = true;
      }
    };

    if (first_hop_up && result.placement.is_replicated(server, site)) {
      served_locally = true;
    } else if (!first_hop_up) {
      attempts = 1;
      redirect_to(find_live());
    } else {
      const bool flagged =
          lambda_rng.bernoulli(catalog.uncacheable_fraction(req.site));
      if (flagged && config.staleness == sim::StalenessMode::kUncacheable) {
        redirect_to(resolve());
      } else if (flagged) {
        const auto copy = resolve();
        if (copy) cache.access(key, bytes);
        redirect_to(copy);
      } else {
        cache_eligible = true;
        if (!faults) {
          cache_hit = cache.access(key, bytes);
        } else {
          cache_hit = cache.access_no_admit(key, bytes);
        }
        if (cache_hit) {
          served_locally = true;
        } else {
          const auto copy = resolve();
          if (faults && copy) cache.admit(key, bytes);
          redirect_to(copy);
        }
      }
    }

    double latency_ms;
    if (!faults) {
      latency_ms = config.latency.latency_ms(hops);
    } else if (failed) {
      latency_ms = config.latency.retry_penalty_ms(attempts);
    } else {
      latency_ms = config.latency.failover_latency_ms(
          hops * timeline->latency_multiplier(req.server), attempts);
    }
    if (t < warmup) continue;
    if (failed) {
      ++failed_total;
    } else {
      report.latency_cdf.add(latency_ms);
    }
    hop_sum += hops;
    if (served_locally) ++local;
    if (cache_eligible) {
      ++eligible;
      if (cache_hit) ++eligible_hits;
    }
    if (attempts > 0 && !failed) ++failover_total;
    retries_total += attempts;
    if (config.slo_ms > 0.0 && (failed || latency_ms > config.slo_ms)) {
      ++slo_violations;
    }
  }

  const double measured = static_cast<double>(total - warmup);
  report.measured_requests = total - warmup;
  report.mean_latency_ms =
      report.latency_cdf.empty() ? 0.0 : report.latency_cdf.mean();
  report.mean_cost_hops = hop_sum / measured;
  report.local_ratio = static_cast<double>(local) / measured;
  report.cache_hit_ratio =
      eligible ? static_cast<double>(eligible_hits) /
                     static_cast<double>(eligible)
               : 0.0;
  report.failed_requests = failed_total;
  report.failover_requests = failover_total;
  report.retry_attempts = retries_total;
  report.availability = 1.0 - static_cast<double>(failed_total) / measured;
  report.slo_violation_fraction =
      config.slo_ms > 0.0 ? static_cast<double>(slo_violations) / measured
                          : 0.0;
  if (faults) report.fault_transitions = timeline->transitions();
  for (const auto& c : caches) {
    report.server_cache_stats.push_back(c->stats());
    report.cache_totals.merge(c->stats());
  }
  return report;
}

}  // namespace cdn::test
