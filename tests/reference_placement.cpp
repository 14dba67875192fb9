#include "tests/reference_placement.h"

#include <utility>

#include "src/cdn/cost.h"
#include "src/model/server_cache_state.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_internal.h"
#include "src/placement/model_support.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace cdn::test {

namespace {

struct Best {
  double benefit = 0.0;
  sys::ServerIndex server = 0;
  sys::SiteIndex site = 0;
  bool valid = false;
};

/// One full scan: the best feasible candidate of every server (servers in
/// parallel, sites ascending), then the best server, so ties go to the
/// lowest server and then the lowest site.  Adds the number of candidates
/// evaluated to `candidates`.
template <typename Benefit>
Best scan(const sys::ReplicaPlacement& replicas, std::uint64_t& candidates,
          const Benefit& benefit) {
  const std::size_t n = replicas.server_count();
  const std::size_t m = replicas.site_count();
  std::vector<Best> best(n);
  std::vector<std::uint64_t> evaluated(n, 0);
  util::parallel_for(0, n, [&](std::size_t i) {
    const auto server = static_cast<sys::ServerIndex>(i);
    for (std::size_t j = 0; j < m; ++j) {
      const auto site = static_cast<sys::SiteIndex>(j);
      if (!replicas.can_add(server, site)) continue;
      ++evaluated[i];
      const double b = benefit(server, site);
      if (!best[i].valid || b > best[i].benefit) {
        best[i] = {b, server, site, true};
      }
    }
  });
  Best winner;
  for (std::size_t i = 0; i < n; ++i) {
    candidates += evaluated[i];
    if (best[i].valid && (!winner.valid || best[i].benefit > winner.benefit)) {
      winner = best[i];
    }
  }
  return winner;
}

}  // namespace

ReferencePlacement reference_hybrid_greedy(
    const sys::CdnSystem& system,
    const placement::HybridGreedyOptions& options) {
  CDN_EXPECT(options.placement_model == placement::PlacementModel::kExact,
             "the reference hybrid greedy prices the exact model tier only");
  const std::size_t m = system.site_count();

  const placement::ModelContext context(system, options.pb_mode);
  std::vector<model::ServerCacheState> states = context.make_states();
  sys::ReplicaPlacement replicas(system.server_storage(), system.site_bytes());
  placement::detail::apply_seed(system, options, replicas, states);
  sys::NearestReplicaIndex nearest(system.distances(), replicas);

  ReferencePlacement ref{.result = {.algorithm = "hybrid-greedy",
                                    .placement = std::move(replicas),
                                    .nearest = std::move(nearest)}};
  placement::PlacementResult& r = ref.result;

  // Lines 2-5 of Figure 2: the modelled hit ratios and the initial D.
  std::vector<double> hit = placement::modeled_hit_matrix(states);
  std::vector<double> flow = placement::miss_flow_matrix(system, hit);
  auto current_cost = [&] {
    return sys::total_remote_cost(system.demand(), r.nearest,
                                  placement::hit_fn(hit, m));
  };
  r.cost_trajectory.push_back(current_cost());

  // Lines 6-17: the benefit of one candidate, net of any add-cost charge.
  const auto benefit = [&](sys::ServerIndex i, sys::SiteIndex j) {
    CDN_DCHECK(states[i].can_fit(j),
               "placement and model state disagree on free space");
    return placement::hybrid_candidate_benefit(system, r.placement, r.nearest,
                                               states[i], hit, flow.data(), i,
                                               j) -
           options.add_cost_per_byte *
               static_cast<double>(system.site_bytes()[j]);
  };

  const std::size_t seeded = r.placement.replica_count();
  while (options.max_replicas == 0 ||
         r.placement.replica_count() < seeded + options.max_replicas) {
    const Best w = scan(r.placement, ref.candidates, benefit);
    if (!w.valid || w.benefit <= 0.0) break;

    ReferenceCommit commit{.server = w.server,
                           .site = w.site,
                           .benefit = w.benefit,
                           .parts = placement::hybrid_candidate_benefit_parts(
                               system, r.placement, r.nearest,
                               states[w.server], hit, flow.data(), w.server,
                               w.site)};

    // Lines 18-25: materialise the winner; only its server's cache moved.
    r.placement.add(w.server, w.site);
    r.nearest.on_replica_added(w.server, w.site);
    states[w.server].replicate(w.site);
    for (std::size_t j = 0; j < m; ++j) {
      hit[static_cast<std::size_t>(w.server) * m + j] =
          states[w.server].hit_ratio(static_cast<std::uint32_t>(j));
    }
    placement::refresh_miss_flow_row(system, hit, w.server, flow);
    r.cost_trajectory.push_back(current_cost());
    commit.cost_after = r.cost_trajectory.back();
    ref.commits.push_back(commit);
  }

  placement::finalize_result(system, states, r);
  return ref;
}

ReferencePlacement reference_greedy_global(
    const sys::CdnSystem& system,
    const std::vector<std::uint64_t>& replica_budgets,
    std::size_t max_replicas) {
  sys::ReplicaPlacement replicas(replica_budgets, system.site_bytes());
  sys::NearestReplicaIndex nearest(system.distances(), replicas);
  ReferencePlacement ref{.result = {.algorithm = "greedy-global",
                                    .placement = std::move(replicas),
                                    .nearest = std::move(nearest)}};
  placement::PlacementResult& r = ref.result;
  r.cost_trajectory.push_back(
      sys::total_remote_cost(system.demand(), r.nearest));

  const auto benefit = [&](sys::ServerIndex i, sys::SiteIndex j) {
    return placement::replication_benefit(system, r.placement, r.nearest, i,
                                          j);
  };
  while (max_replicas == 0 || r.placement.replica_count() < max_replicas) {
    const Best w = scan(r.placement, ref.candidates, benefit);
    if (!w.valid || w.benefit <= 0.0) break;
    r.placement.add(w.server, w.site);
    r.nearest.on_replica_added(w.server, w.site);
    r.cost_trajectory.push_back(
        sys::total_remote_cost(system.demand(), r.nearest));
    ref.commits.push_back({.server = w.server,
                           .site = w.site,
                           .benefit = w.benefit,
                           .cost_after = r.cost_trajectory.back()});
  }

  placement::finalize_replication_result(system, r);
  return ref;
}

}  // namespace cdn::test
