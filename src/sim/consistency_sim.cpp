#include "src/sim/consistency_sim.h"

#include "src/util/error.h"
#include "src/workload/request_stream.h"

namespace cdn::sim {

ConsistencyReport simulate_with_consistency(
    const sys::CdnSystem& system, const placement::PlacementResult& result,
    const SimulationConfig& sim_config,
    const ConsistencyConfig& consistency) {
  ConsistencyReport out;
  if (consistency.mode == ConsistencyMode::kBernoulli) {
    out.base = simulate(system, result, sim_config);
    return out;
  }

  CDN_EXPECT(sim_config.total_requests > 0, "need at least one request");
  CDN_EXPECT(sim_config.warmup_fraction >= 0.0 &&
                 sim_config.warmup_fraction < 1.0,
             "warmup fraction must be in [0, 1)");
  CDN_EXPECT(consistency.seconds_per_request > 0.0,
             "virtual-time scale must be positive");
  CDN_EXPECT(consistency.ttl > 0.0, "TTL must be positive");

  const auto& catalog = system.catalog();
  const std::size_t n = system.server_count();

  std::vector<std::unique_ptr<cache::CachePolicy>> caches;
  std::vector<FreshnessTable> freshness(n);
  caches.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    caches.push_back(cache::make_cache(
        sim_config.policy,
        result.cache_bytes(static_cast<sys::ServerIndex>(i))));
  }

  workload::RequestStream stream(catalog, system.demand(), sim_config.seed);
  ModificationProcess updates(consistency.min_mean_update_interval,
                              consistency.max_mean_update_interval,
                              consistency.seed);

  const std::uint64_t warmup = static_cast<std::uint64_t>(
      sim_config.warmup_fraction *
      static_cast<double>(sim_config.total_requests));

  out.base.total_requests = sim_config.total_requests;
  out.base.latency_cdf.reserve(sim_config.total_requests - warmup);

  double hop_sum = 0.0;
  std::uint64_t local = 0, eligible = 0, eligible_hits = 0;

  for (std::uint64_t t = 0; t < sim_config.total_requests; ++t) {
    if (t == warmup) {
      for (auto& c : caches) c->reset_stats();
    }
    const double now =
        static_cast<double>(t) * consistency.seconds_per_request;
    const workload::Request req = stream.next();
    const auto server = static_cast<sys::ServerIndex>(req.server);
    const auto site = static_cast<sys::SiteIndex>(req.site);
    const bool measured = t >= warmup;

    double hops = 0.0;
    bool served_locally = false;
    bool cache_hit = false;
    bool counted_eligible = false;

    if (result.placement.is_replicated(server, site)) {
      served_locally = true;  // replicas are push-updated, always fresh
    } else {
      counted_eligible = true;
      const double redirect = result.nearest.cost(server, site);
      cache::CachePolicy& cache = *caches[server];
      FreshnessTable& fresh = freshness[server];
      const cache::ObjectKey key = catalog.object_id(req.site, req.rank);
      const std::uint64_t bytes = catalog.object_bytes(req.site, req.rank);

      bool hit = cache.lookup(key);
      if (hit && consistency.mode == ConsistencyMode::kInvalidation) {
        // Server-based invalidation [18]: a modification voided the copy.
        if (updates.last_modification(key, now) > fresh.fetch_time(key)) {
          cache.erase(key);
          fresh.erase(key);
          hit = false;
          if (measured) ++out.invalidation_misses;
        }
      }

      if (hit && consistency.mode == ConsistencyMode::kTtl) {
        const double age = now - fresh.fetch_time(key);
        if (age > consistency.ttl) {
          // Expired: revalidate at the nearest copy (remote round).
          fresh.on_fetch(key, now);
          hops = redirect;
          if (measured) ++out.validations;
        } else {
          served_locally = true;
          cache_hit = true;
          if (updates.last_modification(key, now) > fresh.fetch_time(key) &&
              measured) {
            ++out.stale_served;  // weak consistency served a stale copy
          }
        }
      } else if (hit) {
        served_locally = true;
        cache_hit = true;
      } else {
        // Miss: fetch from the nearest copy and admit.
        cache.admit(key, bytes);
        if (cache.contains(key)) fresh.on_fetch(key, now);
        hops = redirect;
      }
      // Keep the embedded hit/miss statistics coherent.
      if (cache_hit) {
        // lookup() already refreshed recency; record the hit.
        // (Validated-but-expired hits count as remote service.)
      }
    }

    if (measured) {
      out.base.latency_cdf.add(sim_config.latency.latency_ms(hops));
      hop_sum += hops;
      if (served_locally) ++local;
      if (counted_eligible) {
        ++eligible;
        if (cache_hit) ++eligible_hits;
      }
    }
  }

  out.base.measured_requests = sim_config.total_requests - warmup;
  CDN_CHECK(out.base.measured_requests > 0,
            "warm-up consumed every request");
  const double measured =
      static_cast<double>(out.base.measured_requests);
  out.base.mean_latency_ms = out.base.latency_cdf.mean();
  out.base.mean_cost_hops = hop_sum / measured;
  out.base.local_ratio = static_cast<double>(local) / measured;
  out.base.cache_hit_ratio =
      eligible ? static_cast<double>(eligible_hits) /
                     static_cast<double>(eligible)
               : 0.0;
  out.base.server_cache_stats.reserve(n);
  for (const auto& c : caches) {
    out.base.server_cache_stats.push_back(c->stats());
  }
  return out;
}

}  // namespace cdn::sim
