#include "src/placement/hybrid_greedy.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "src/cdn/cost.h"
#include "src/obs/scoped_timer.h"
#include "src/placement/hybrid_internal.h"
#include "src/placement/model_support.h"
#include "src/placement/tier_evaluator.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace cdn::placement {

namespace {

struct Candidate {
  double benefit = 0.0;
  sys::ServerIndex server = 0;
  sys::SiteIndex site = 0;
  bool valid = false;
  std::uint64_t evaluated = 0;  // candidates this server considered
};

}  // namespace

std::vector<double> miss_flow_matrix(const sys::CdnSystem& system,
                                     const std::vector<double>& hit) {
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  std::vector<double> flow(n * m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    refresh_miss_flow_row(system, hit, static_cast<sys::ServerIndex>(i), flow);
  }
  return flow;
}

void refresh_miss_flow_row(const sys::CdnSystem& system,
                           const std::vector<double>& hit,
                           sys::ServerIndex server,
                           std::vector<double>& flow) {
  const std::size_t m = system.site_count();
  const auto& demand = system.demand();
  const std::size_t i = server;
  for (std::size_t j = 0; j < m; ++j) {
    // Must stay the elementwise twin of the miss_flow == nullptr fallback in
    // hybrid_candidate_benefit_parts: the engines rely on the two producing
    // bit-identical doubles.
    flow[i * m + j] = (1.0 - hit[i * m + j]) *
                      demand.requests(server, static_cast<sys::SiteIndex>(j));
  }
}

namespace detail {

double hybrid_cache_penalty(const sys::CdnSystem& system,
                            const sys::NearestReplicaIndex& nearest,
                            const model::ServerCacheState& state,
                            const std::vector<double>& hit,
                            sys::ServerIndex server, sys::SiteIndex site,
                            double* terms) {
  const std::size_t m = system.site_count();
  const auto& demand = system.demand();
  const std::size_t i = server;
  const std::size_t j = site;

  // Cache penalty (lines 10-13): smaller buffer for everyone else.  Skipped
  // sites contribute exactly +0.0, and no term or partial sum is ever -0.0
  // (terms are dh*d*c with d, c >= 0 and IEEE cancellation yielding +0.0),
  // so re-summing a captured `terms` array over ALL sites in ascending order
  // reproduces this accumulation bit for bit.
  double penalty = 0.0;
  const auto what_if = state.what_if_replicate(static_cast<std::uint32_t>(j));
  for (std::size_t k = 0; k < m; ++k) {
    double term = 0.0;
    if (k != j && !state.is_replicated(static_cast<std::uint32_t>(k))) {
      const double c = nearest.cost(server, static_cast<sys::SiteIndex>(k));
      if (c != 0.0) {
        const double dh =
            hit[i * m + k] - what_if.hit_ratio(static_cast<std::uint32_t>(k));
        term = dh * demand.requests(server, static_cast<sys::SiteIndex>(k)) * c;
        penalty += term;
      }
    }
    if (terms != nullptr) terms[k] = term;
  }
  return penalty;
}

double hybrid_relative_gain(const sys::CdnSystem& system,
                            const sys::ReplicaPlacement& placement,
                            const sys::NearestReplicaIndex& nearest,
                            const std::vector<double>& hit,
                            const double* miss_flow, sys::ServerIndex server,
                            sys::SiteIndex site) {
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const auto& demand = system.demand();
  const auto& dist = system.distances();
  const std::size_t j = site;

  // Relative benefit (lines 14-17): other servers' misses for j.
  double gain = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto other = static_cast<sys::ServerIndex>(k);
    if (other == server || placement.is_replicated(other, site)) continue;
    const double delta =
        nearest.cost(other, site) - dist.server_to_server(other, server);
    if (delta > 0.0) {
      const double f =
          miss_flow != nullptr
              ? miss_flow[k * m + j]
              : (1.0 - hit[k * m + j]) * demand.requests(other, site);
      gain += delta * f;
    }
  }
  return gain;
}

}  // namespace detail

HybridBenefitParts hybrid_candidate_benefit_parts(
    const sys::CdnSystem& system, const sys::ReplicaPlacement& placement,
    const sys::NearestReplicaIndex& nearest,
    const model::ServerCacheState& state, const std::vector<double>& hit,
    const double* miss_flow, sys::ServerIndex server, sys::SiteIndex site) {
  const std::size_t m = system.site_count();
  const std::size_t i = server;
  const std::size_t j = site;

  HybridBenefitParts parts;

  // Local benefit (line 9): former misses for j become local.
  const double local_flow =
      miss_flow != nullptr
          ? miss_flow[i * m + j]
          : (1.0 - hit[i * m + j]) * system.demand().requests(server, site);
  parts.local_gain = local_flow * nearest.cost(server, site);

  parts.cache_penalty = detail::hybrid_cache_penalty(system, nearest, state,
                                                     hit, server, site,
                                                     nullptr);
  parts.relative_gain = detail::hybrid_relative_gain(
      system, placement, nearest, hit, miss_flow, server, site);
  return parts;
}

HybridBenefitParts hybrid_candidate_benefit_parts(
    const sys::CdnSystem& system, const sys::ReplicaPlacement& placement,
    const sys::NearestReplicaIndex& nearest,
    const model::ServerCacheState& state, const std::vector<double>& hit,
    sys::ServerIndex server, sys::SiteIndex site) {
  return hybrid_candidate_benefit_parts(system, placement, nearest, state, hit,
                                        nullptr, server, site);
}

double hybrid_candidate_benefit(const sys::CdnSystem& system,
                                const sys::ReplicaPlacement& placement,
                                const sys::NearestReplicaIndex& nearest,
                                const model::ServerCacheState& state,
                                const std::vector<double>& hit,
                                const double* miss_flow,
                                sys::ServerIndex server, sys::SiteIndex site) {
  return hybrid_candidate_benefit_parts(system, placement, nearest, state, hit,
                                        miss_flow, server, site)
      .total();
}

double hybrid_candidate_benefit(const sys::CdnSystem& system,
                                const sys::ReplicaPlacement& placement,
                                const sys::NearestReplicaIndex& nearest,
                                const model::ServerCacheState& state,
                                const std::vector<double>& hit,
                                sys::ServerIndex server,
                                sys::SiteIndex site) {
  return hybrid_candidate_benefit(system, placement, nearest, state, hit,
                                  nullptr, server, site);
}

namespace detail {

PlacementResult hybrid_greedy_reference(const sys::CdnSystem& system,
                                        const HybridGreedyOptions& options) {
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const auto& demand = system.demand();

  obs::Registry* const metrics = options.metrics;
  const std::string& pfx = options.metrics_prefix;
  obs::TimerStat* const t_total =
      metrics ? &metrics->timer(pfx + "phase/total") : nullptr;
  obs::TimerStat* const t_eval =
      metrics ? &metrics->timer(pfx + "phase/eval") : nullptr;
  obs::TimerStat* const t_commit =
      metrics ? &metrics->timer(pfx + "phase/commit") : nullptr;
  obs::Table* const iteration_log =
      metrics ? &metrics->table(
                    pfx + "iterations",
                    {"iteration", "server", "site", "candidates", "benefit",
                     "local_gain", "relative_gain", "cache_penalty",
                     "bytes_committed", "cost_after", "eval_ms"})
              : nullptr;
  obs::SpanTracer* const spans = options.spans;
  const char* sp_total = nullptr;
  const char* sp_iter = nullptr;
  if (spans != nullptr) {
    sp_total = spans->intern(pfx + "total");
    sp_iter = spans->intern(pfx + "iteration");
  }
  obs::ScopedTimer total_timer(t_total);
  obs::ScopedSpan total_span(spans, sp_total, "placement");

  ModelContext context(system, options.pb_mode, options.placement_model);
  std::vector<model::ServerCacheState> states = context.make_states();

  sys::ReplicaPlacement placement(system.server_storage(),
                                  system.site_bytes());
  apply_seed(system, options, placement, states);
  sys::NearestReplicaIndex nearest(system.distances(), placement);

  PlacementResult result{.algorithm = "hybrid-greedy",
                         .placement = std::move(placement),
                         .nearest = std::move(nearest)};

  // Current modelled hit ratios, refreshed once per iteration and shared by
  // every candidate evaluation (lines 2-5 of Figure 2 for the initial D).
  std::vector<double> hit = modeled_hit_matrix(states);
  std::vector<double> flow = miss_flow_matrix(system, hit);
  auto current_cost = [&] {
    return sys::total_remote_cost(demand, result.nearest, hit_fn(hit, m));
  };
  result.cost_trajectory.push_back(current_cost());

  // Tier fast path (kClosedForm / kChe): candidates are priced from shared
  // per-server tables; the exact-model branch below stays literally
  // untouched under kExact (byte-identity gate).
  const bool tiered = options.placement_model != PlacementModel::kExact;
  std::optional<TierEvaluator> tier;
  std::optional<RelativeColumns> columns;
  if (tiered) {
    tier.emplace(system, states, result.nearest, context.curve(),
                 context.occupancy(), options.placement_model);
    columns.emplace();
    columns->build(system, result.placement, result.nearest, flow);
  }
  std::uint64_t tier_fallbacks = 0;
  std::uint64_t tier_margin_hits = 0;

  const std::size_t seeded = result.placement.replica_count();
  std::vector<Candidate> best_per_server(n);
  std::uint64_t total_candidates = 0;
  std::size_t iteration = 0;
  for (;;) {
    if (options.max_replicas != 0 &&
        result.placement.replica_count() >= seeded + options.max_replicas) {
      break;
    }
    obs::ScopedSpan iter_span(spans, sp_iter, "placement");
    iter_span.arg("iteration", static_cast<double>(iteration));
    std::chrono::steady_clock::time_point eval_start;
    if (t_eval != nullptr) eval_start = std::chrono::steady_clock::now();
    util::parallel_for(0, n, [&](std::size_t i) {
      const auto server = static_cast<sys::ServerIndex>(i);
      Candidate best;
      std::uint64_t evaluated = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const auto site = static_cast<sys::SiteIndex>(j);
        if (!result.placement.can_add(server, site)) continue;
        CDN_DCHECK(states[i].can_fit(static_cast<std::uint32_t>(j)),
                   "placement and model state disagree on free space");
        ++evaluated;
        const double budget_cost =
            options.add_cost_per_byte *
            static_cast<double>(system.site_bytes()[j]);
        const double b =
            tiered
                ? flow[i * m + j] * result.nearest.cost(server, site) +
                      columns->relative_gain(server, site) -
                      tier->penalty(server, site) - budget_cost
                : hybrid_candidate_benefit(system, result.placement,
                                           result.nearest, states[i], hit,
                                           flow.data(), server, site) -
                      budget_cost;
        if (!best.valid || b > best.benefit) {
          best = {b, server, site, true, 0};
        }
      }
      best.evaluated = evaluated;
      best_per_server[i] = best;
    });
    double eval_ms = 0.0;
    if (t_eval != nullptr) {
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - eval_start)
              .count());
      t_eval->record_ns(ns);
      eval_ms = static_cast<double>(ns) * 1e-6;
    }

    Candidate winner;
    std::uint64_t iteration_candidates = 0;
    for (const Candidate& c : best_per_server) {
      iteration_candidates += c.evaluated;
      if (c.valid && (!winner.valid || c.benefit > winner.benefit)) {
        winner = c;
      }
    }
    total_candidates += iteration_candidates;

    // Error-gated exact fallback: the tier prices only RANK candidates —
    // the winner plus every candidate whose tier benefit lands within the
    // margin band of it is re-priced with the exact Eq. 1/Eq. 2 penalty,
    // and the exact values pick the committed candidate and make the stop
    // decision.  The band absorbs tier mis-ranking of near-winners; it is
    // relative to the current top benefit, so it tightens as the frontier
    // decays instead of sweeping the whole tail into exact re-pricing.
    std::optional<HybridBenefitParts> winner_parts;
    if (tiered && winner.valid) {
      const double band =
          options.tier_fallback_margin * std::abs(winner.benefit);
      Candidate exact_best;
      HybridBenefitParts exact_parts;
      for (const Candidate& c : best_per_server) {
        if (!c.valid || c.benefit < winner.benefit - band) continue;
        ++tier_fallbacks;
        if (c.server != winner.server || c.site != winner.site) {
          ++tier_margin_hits;
        }
        HybridBenefitParts p;
        p.local_gain =
            flow[static_cast<std::size_t>(c.server) * m + c.site] *
            result.nearest.cost(c.server, c.site);
        p.relative_gain = columns->relative_gain(c.server, c.site);
        p.cache_penalty =
            hybrid_cache_penalty(system, result.nearest, states[c.server],
                                 hit, c.server, c.site, nullptr);
        const double b =
            p.total() - options.add_cost_per_byte *
                            static_cast<double>(system.site_bytes()[c.site]);
        if (!exact_best.valid || b > exact_best.benefit) {
          exact_best = {b, c.server, c.site, true, 0};
          exact_parts = p;
        }
      }
      winner = exact_best;
      winner_parts = exact_parts;
    }
    if (!winner.valid || winner.benefit <= 0.0) break;

    // Benefit decomposition of the winner, against the pre-commit state
    // (the same inputs the benefit above saw).
    HybridBenefitParts parts;
    if (iteration_log != nullptr) {
      if (!tiered) {
        parts = hybrid_candidate_benefit_parts(
            system, result.placement, result.nearest, states[winner.server],
            hit, flow.data(), winner.server, winner.site);
      } else if (winner_parts) {
        parts = *winner_parts;
      } else {
        parts.local_gain =
            flow[static_cast<std::size_t>(winner.server) * m + winner.site] *
            result.nearest.cost(winner.server, winner.site);
        parts.relative_gain =
            columns->relative_gain(winner.server, winner.site);
        parts.cache_penalty = tier->penalty(winner.server, winner.site);
      }
    }

    {
      // Lines 18-25: materialise the winner and update the books.
      obs::ScopedTimer commit_timer(t_commit);
      result.placement.add(winner.server, winner.site);
      const std::vector<sys::ServerIndex> changed =
          result.nearest.on_replica_added(winner.server, winner.site);
      states[winner.server].replicate(winner.site);

      // Refresh the winner server's modelled hit row; other rows are
      // unchanged (their caches did not move).
      for (std::size_t j = 0; j < m; ++j) {
        hit[static_cast<std::size_t>(winner.server) * m + j] =
            states[winner.server].hit_ratio(static_cast<std::uint32_t>(j));
      }
      refresh_miss_flow_row(system, hit, winner.server, flow);
      if (tiered) {
        for (const sys::ServerIndex k : changed) {
          if (k != winner.server) tier->on_cost_changed(k, winner.site);
        }
        columns->on_commit(result.nearest, flow, winner.server, winner.site,
                           changed);
      }
      result.cost_trajectory.push_back(current_cost());
    }

    if (iteration_log != nullptr) {
      iteration_log->add_row(
          {static_cast<double>(iteration),
           static_cast<double>(winner.server),
           static_cast<double>(winner.site),
           static_cast<double>(iteration_candidates), winner.benefit,
           parts.local_gain, parts.relative_gain, parts.cache_penalty,
           static_cast<double>(system.site_bytes()[winner.site]),
           result.cost_trajectory.back(), eval_ms});
    }
    ++iteration;
  }

  finalize_result(system, states, result);

  if (metrics != nullptr) {
    metrics->counter(pfx + "candidates_evaluated").add(total_candidates);
    metrics->counter("model/curve_clamped")
        .add(context.curve().clamped_evaluations());
    metrics->gauge(pfx + "replicas_created")
        .set(static_cast<double>(result.replicas_created));
    metrics->gauge(pfx + "predicted_cost_per_request")
        .set(result.predicted_cost_per_request);
    if (tiered) {
      metrics->counter(pfx + "tier_evaluations").add(tier->evaluations());
      metrics->counter(pfx + "tier_fallbacks").add(tier_fallbacks);
      metrics->counter(pfx + "tier_margin_hits").add(tier_margin_hits);
      if (options.placement_model == PlacementModel::kChe) {
        metrics->counter("model/che/fixed_point_iterations")
            .add(tier->che_iterations());
      }
    }
    obs::Series& cost = metrics->series(pfx + "cost");
    for (const double c : result.cost_trajectory) cost.push(c);
  }
  return result;
}

}  // namespace detail

PlacementResult hybrid_greedy(const sys::CdnSystem& system,
                              const HybridGreedyOptions& options) {
  switch (options.engine) {
    case PlacementEngine::kReference:
      return detail::hybrid_greedy_reference(system, options);
    case PlacementEngine::kIncremental:
      return detail::hybrid_greedy_incremental(system, options);
  }
  CDN_EXPECT(false, "unknown placement engine");
  return detail::hybrid_greedy_reference(system, options);
}

}  // namespace cdn::placement
