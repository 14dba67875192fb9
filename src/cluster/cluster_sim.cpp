#include "src/cluster/cluster_sim.h"

#include "src/util/error.h"
#include "src/workload/request_stream.h"

namespace cdn::cluster {

sim::SimulationReport simulate_clusters(const sys::CdnSystem& system,
                                        const ClusterPlacementResult& result,
                                        const sim::SimulationConfig& config) {
  CDN_EXPECT(config.total_requests > 0, "need at least one request");
  CDN_EXPECT(config.warmup_fraction >= 0.0 && config.warmup_fraction < 1.0,
             "warmup fraction must be in [0, 1)");

  workload::RequestStream stream(system.catalog(), system.demand(),
                                 config.seed);
  const std::uint64_t warmup = static_cast<std::uint64_t>(
      config.warmup_fraction * static_cast<double>(config.total_requests));

  sim::SimulationReport report;
  report.total_requests = config.total_requests;
  report.latency_cdf.reserve(config.total_requests - warmup);

  double hop_sum = 0.0;
  std::uint64_t local = 0;
  for (std::uint64_t t = 0; t < config.total_requests; ++t) {
    const workload::Request req = stream.next();
    const ClusterId cl = result.scheme.cluster_of(req.site, req.rank);
    const auto server = static_cast<sys::ServerIndex>(req.server);
    const auto unit = static_cast<sys::SiteIndex>(cl);

    double hops = 0.0;
    if (result.placement.is_replicated(server, unit)) {
      // Local cluster replica (always consistent, like site replicas).
    } else {
      hops = result.nearest.cost(server, unit);
    }
    if (t >= warmup) {
      report.latency_cdf.add(config.latency.latency_ms(hops));
      hop_sum += hops;
      if (hops == 0.0) ++local;
    }
  }

  report.measured_requests = config.total_requests - warmup;
  CDN_CHECK(report.measured_requests > 0, "warm-up consumed every request");
  const double measured = static_cast<double>(report.measured_requests);
  report.mean_latency_ms = report.latency_cdf.mean();
  report.mean_cost_hops = hop_sum / measured;
  report.local_ratio = static_cast<double>(local) / measured;
  report.cache_hit_ratio = 0.0;  // no caches in this scheme
  return report;
}

}  // namespace cdn::cluster
