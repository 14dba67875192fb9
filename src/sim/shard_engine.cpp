#include "src/sim/shard_engine.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/request_kernel.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/sim_internal.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/zipf.h"
#include "src/workload/request_stream.h"

namespace cdn::sim {

namespace {

// Distinct salts keep the plan, per-shard stream and per-shard lambda RNG
// substreams independent of each other for any (seed, shard).
constexpr std::uint64_t kPlanSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kStreamSalt = 0xbf58476d1ce4e5b9ull;
constexpr std::uint64_t kLambdaSalt = 0x94d049bb133111ebull;

/// Everything one shard produces; plain data merged on the main thread in
/// shard-index order (obs::Registry is single-threaded by design, so no
/// shard ever touches it).
struct ShardResult {
  detail::Tally tally;                             // latency in sketch mode
  std::vector<detail::WindowAccumulator> windows;  // size = window count
  std::vector<obs::Histogram> server_latency;      // per owned server
};

/// Mutable per-shard engine state that must survive checkpoint barriers:
/// the caches, the substream RNGs and the shard-local request index.  The
/// slot tables index the owned caches and histograms by global server id,
/// so the request kernel needs no shard arithmetic.
struct ShardState {
  std::vector<std::unique_ptr<cache::CachePolicy>> caches;
  std::vector<cache::CachePolicy*> cache_slots;
  std::vector<obs::Histogram*> histogram_slots;
  std::optional<workload::RequestStream> stream;
  util::Rng lambda_rng{0};
  std::uint64_t t = 0;  // next shard-local request index
};

/// Per-shard interval target for barrier k of `intervals`: proportional
/// progress, exact at the last barrier.  128-bit intermediate so huge runs
/// cannot overflow.
std::uint64_t interval_target(std::uint64_t shard_total, std::size_t k,
                              std::size_t intervals) {
  if (k + 1 >= intervals) return shard_total;
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(shard_total) *
                                    (k + 1) / intervals);
}

}  // namespace

std::size_t resolve_shard_count(std::size_t configured, std::size_t threads,
                                std::size_t server_count) {
  const std::size_t want = configured != 0 ? configured : 4 * threads;
  return std::max<std::size_t>(1, std::min(want, server_count));
}

ShardPlan plan_shards(const workload::DemandMatrix& demand,
                      std::uint64_t total, std::size_t shards,
                      std::uint64_t seed) {
  CDN_EXPECT(shards >= 1 && shards <= demand.server_count(),
             "shard count must be in [1, server count]");
  ShardPlan plan;
  plan.servers.resize(shards);
  plan.requests.assign(shards, 0);
  std::vector<double> mass(shards, 0.0);
  for (std::size_t i = 0; i < demand.server_count(); ++i) {
    const std::size_t s = i % shards;
    plan.servers[s].push_back(static_cast<workload::ServerId>(i));
    for (const double d : demand.row(static_cast<workload::ServerId>(i))) {
      mass[s] += d;
    }
  }
  // Exact multinomial split: `total` categorical draws over the shard
  // masses.  O(total) with an alias table — a percent or two of the run —
  // and deterministic in (seed, shards) alone.
  util::AliasSampler sampler(mass);
  util::Rng rng(detail::substream_seed(seed, 0, kPlanSalt));
  for (std::uint64_t t = 0; t < total; ++t) {
    ++plan.requests[sampler.sample(rng)];
  }
  return plan;
}

SimulationReport simulate_parallel(const sys::CdnSystem& system,
                                   const placement::PlacementResult& result,
                                   const SimulationConfig& config,
                                   std::size_t threads) {
  const std::size_t n = system.server_count();
  obs::Registry* const metrics = config.metrics;
  const std::string& prefix = config.metrics_prefix;

  // Span names are interned once; workers then record per-interval shard
  // spans lock-free into their own thread buffers.
  obs::SpanTracer* const spans = config.spans;
  const char* sp_shard = nullptr;
  const char* sp_barrier = nullptr;
  const char* sp_merge = nullptr;
  if (spans != nullptr) {
    sp_shard = spans->intern(prefix + "shard/run");
    sp_barrier = spans->intern(prefix + "barrier");
    sp_merge = spans->intern(prefix + "merge");
  }

  std::optional<detail::PhaseScope> phase;
  phase.emplace(config, "setup");

  const std::size_t shards = resolve_shard_count(config.shards, threads, n);
  const std::uint64_t total = config.total_requests;
  const ShardPlan plan =
      plan_shards(system.demand(), total, shards, config.seed);

  // Per-shard warm-up mirrors the sequential engine's fraction; summing the
  // per-shard measured counts gives the run's measured total.
  std::vector<std::uint64_t> shard_warmup(shards, 0);
  std::uint64_t measured_total = 0;
  std::uint64_t warmup_total = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    shard_warmup[s] = static_cast<std::uint64_t>(
        config.warmup_fraction * static_cast<double>(plan.requests[s]));
    measured_total += plan.requests[s] - shard_warmup[s];
    warmup_total += shard_warmup[s];
  }
  CDN_CHECK(measured_total > 0, "warm-up consumed every request");

  const bool instrumented = metrics != nullptr;
  // Same window count rule as the sequential engine; every shard uses the
  // same count so window indices align in the merge.
  const std::size_t window_count =
      instrumented ? std::max<std::size_t>(
                         1, std::min<std::size_t>(config.metrics_windows,
                                                  measured_total))
                   : 0;
  const bool per_server = instrumented && config.per_server_metrics;
  const detail::ServeInputs inputs(system, result, config);

  std::vector<ShardResult> results(shards);
  std::vector<ShardState> states(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    if (plan.requests[s] == 0) continue;  // zero-demand shard: nothing to do
    const std::vector<workload::ServerId>& owned = plan.servers[s];
    ShardResult& out = results[s];
    ShardState& st = states[s];
    out.tally.latency.use_sketch(detail::kLatencySketchError);
    out.tally.slo_ms = config.slo_ms;
    if (window_count > 0) out.windows.resize(window_count);
    st.cache_slots.assign(n, nullptr);
    if (per_server) {
      out.server_latency.reserve(owned.size());
      st.histogram_slots.assign(n, nullptr);
      out.tally.server_latency = st.histogram_slots.data();
    }
    st.caches.reserve(owned.size());
    for (const workload::ServerId server : owned) {
      st.caches.push_back(cache::make_cache(
          config.policy,
          result.cache_bytes(static_cast<sys::ServerIndex>(server))));
      st.cache_slots[server] = st.caches.back().get();
      if (per_server) {
        out.server_latency.emplace_back(obs::default_latency_bounds_ms());
        st.histogram_slots[server] = &out.server_latency.back();
      }
    }
    // The shard stream samples the conditional cell distribution given
    // "first hop in this shard" — together with the multinomial split this
    // reproduces the full i.i.d. stream's law exactly.
    st.stream.emplace(system.catalog(), system.demand(),
                      detail::substream_seed(config.seed, s, kStreamSalt),
                      owned);
    st.lambda_rng =
        util::Rng(detail::substream_seed(config.seed, s, kLambdaSalt));
  }

  // --- Crash safety (see docs/RECOVERY.md).  Checkpoints are taken at
  // shard-merge barriers: the interval loop below pauses every worker,
  // serialises each shard's state on the main thread, then resumes. ---
  detail::RunProbes probes(system, result, config,
                           detail::EngineKind::kParallel, shards);
  const auto save_engine_state = [&](util::ByteWriter& w) {
    w.u64(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      if (plan.requests[s] == 0) continue;
      const ShardState& st = states[s];
      const ShardResult& out = results[s];
      w.u64(st.t);
      st.stream->save_state(w);
      detail::save_rng(w, st.lambda_rng);
      w.u64(st.caches.size());
      for (const auto& c : st.caches) c->save_state(w);
      w.f64(out.tally.hop_sum);
      w.u64(out.tally.local);
      w.u64(out.tally.eligible);
      w.u64(out.tally.eligible_hits);
      w.u64(out.tally.slo_violations);
      out.tally.latency.save_state(w);
      for (const std::uint64_t c : out.tally.causes) w.u64(c);
      w.u64(out.windows.size());
      for (const auto& win : out.windows) detail::save_window(w, win);
      w.u64(out.server_latency.size());
      for (const obs::Histogram& h : out.server_latency) h.save_state(w);
    }
  };
  const auto restore_engine_state = [&](util::ByteReader& r) {
    CDN_EXPECT(r.u64() == shards, "checkpoint shard count mismatch");
    std::uint64_t done = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      if (plan.requests[s] == 0) continue;
      ShardState& st = states[s];
      ShardResult& out = results[s];
      st.t = r.u64();
      CDN_EXPECT(st.t <= plan.requests[s],
                 "checkpoint shard request index exceeds the shard's plan");
      done += st.t;
      st.stream->restore_state(r);
      detail::restore_rng(r, st.lambda_rng);
      CDN_EXPECT(r.u64() == st.caches.size(),
                 "checkpoint shard cache count mismatch");
      for (auto& c : st.caches) c->restore_state(r);
      out.tally.hop_sum = r.f64();
      out.tally.local = r.u64();
      out.tally.eligible = r.u64();
      out.tally.eligible_hits = r.u64();
      out.tally.slo_violations = r.u64();
      out.tally.latency.restore_state(r);
      for (std::uint64_t& c : out.tally.causes) c = r.u64();
      CDN_EXPECT(r.u64() == out.windows.size(),
                 "checkpoint shard window count mismatch");
      for (auto& win : out.windows) detail::restore_window(r, win);
      CDN_EXPECT(r.u64() == out.server_latency.size(),
                 "checkpoint per-shard histogram count mismatch");
      for (obs::Histogram& h : out.server_latency) h.restore_state(r);
    }
    CDN_EXPECT(r.done(), "checkpoint payload has trailing bytes");
    return done;
  };
  const std::uint64_t resume_base = probes.resume(restore_engine_state);

  // One barrier per checkpoint cadence; 64 give a stop flag or a time
  // cadence reasonable latency; a plain run keeps today's single pass.
  // Progress reporting also needs barriers to observe the shard clocks,
  // but is capped so a tight cadence cannot drown the run in joins.
  const bool recovery_active = probes.recovery_active();
  const bool progress_active =
      config.progress_every > 0 && config.progress != nullptr;
  std::size_t intervals =
      config.checkpoint_every_requests > 0
          ? static_cast<std::size_t>((total + config.checkpoint_every_requests -
                                      1) /
                                     config.checkpoint_every_requests)
          : (recovery_active ? std::size_t{64} : std::size_t{1});
  if (progress_active) {
    const std::size_t wanted = static_cast<std::size_t>(
        std::min<std::uint64_t>(256, total / config.progress_every));
    intervals = std::max<std::size_t>(intervals, std::max<std::size_t>(
                                                     1, wanted));
  }
  const bool poll_stop = config.stop != nullptr;
  std::uint64_t next_progress =
      progress_active ? resume_base + config.progress_every
                      : std::numeric_limits<std::uint64_t>::max();

  phase.emplace(config, "run");
  {
    // A dedicated pool sized to the run; shards >> threads gives the static
    // partition slack to balance uneven shard masses.
    util::ThreadPool pool(std::min(threads, shards));
    for (std::size_t interval = 0; interval < intervals; ++interval) {
      const auto run_interval = [&](std::size_t s) {
        const std::uint64_t shard_total = plan.requests[s];
        if (shard_total == 0) return;
        const std::uint64_t end =
            interval_target(shard_total, interval, intervals);
        ShardState& st = states[s];
        if (st.t >= end) return;  // already past this barrier (resume)
        obs::ScopedSpan shard_span(spans, sp_shard, "sim");
        shard_span.arg("shard", static_cast<double>(s));
        ShardResult& out = results[s];
        const std::uint64_t warmup = shard_warmup[s];
        const std::uint64_t measured = shard_total - warmup;
        // Chunked loop over the request kernel (docs/PERFORMANCE.md): every
        // rare-event boundary — stop-poll points, the warm-up edge,
        // window-index changes — ends a chunk, so the per-request path
        // carries no boundary compares.
        workload::RequestBatch batch;
        std::uint64_t t = st.t;
        while (t < end) {
          // Shutdown probe at 4096-aligned points: a worker may bail
          // mid-interval; the per-shard position is saved individually, so
          // determinism holds.  t == 0 is exempt so even a pre-set flag
          // checkpoints progress.
          if (poll_stop && (t & 0xfffu) == 0 && t != 0 &&
              config.stop->load(std::memory_order_relaxed)) {
            break;
          }
          if (t == warmup) {
            for (auto& c : st.caches) c->reset_stats();
          }
          std::uint64_t cend =
              std::min(end, static_cast<std::uint64_t>((t | 0xfff) + 1));
          if (t < warmup) cend = std::min(cend, warmup);
          detail::Tally* tally = nullptr;
          if (t >= warmup) {
            tally = &out.tally;
            if (window_count > 0) {
              const std::uint64_t widx =
                  (t - warmup) * window_count / measured;
              tally->window = &out.windows[static_cast<std::size_t>(widx)];
              const auto next_k = static_cast<std::uint64_t>(
                  ((static_cast<unsigned __int128>(widx) + 1) * measured +
                   window_count - 1) /
                  window_count);
              cend = std::min(cend, warmup + next_k);
            }
          }
          st.stream->next_batch(batch, static_cast<std::size_t>(cend - t));
          detail::serve_batch<false>(inputs, st.cache_slots.data(),
                                     st.lambda_rng, batch, tally, nullptr, t);
          t = cend;
        }
        st.t = t;
      };
      util::parallel_for(pool, 0, shards, run_interval);

      if (!recovery_active && !progress_active) continue;
      obs::ScopedSpan barrier_span(spans, sp_barrier, "sim");
      std::uint64_t done = 0;
      for (const ShardState& st : states) done += st.t;
      if (recovery_active) probes.checkpoint(done, save_engine_state);
      if (progress_active && done >= next_progress) {
        next_progress = done + config.progress_every;
        std::uint64_t eligible = 0;
        std::uint64_t eligible_hits = 0;
        for (const ShardResult& r : results) {
          eligible += r.tally.eligible;
          eligible_hits += r.tally.eligible_hits;
        }
        config.progress(probes.progress(done, total, done < warmup_total,
                                        eligible, eligible_hits));
      }
    }
  }

  phase.emplace(config, "report");
  obs::ScopedSpan merge_span(spans, sp_merge, "sim");

  // --- Deterministic merge, fixed shard-index order 0..S-1. ---
  SimulationReport report;
  report.total_requests = total;
  report.shards_used = shards;
  detail::Tally merged;
  merged.latency.use_sketch(detail::kLatencySketchError);
  merged.slo_ms = config.slo_ms;
  std::vector<detail::WindowAccumulator> windows(window_count);
  report.server_cache_stats.resize(n);
  for (std::size_t s = 0; s < shards; ++s) {
    const ShardResult& r = results[s];
    if (plan.requests[s] == 0) continue;
    merged.merge(r.tally);
    for (std::size_t w = 0; w < window_count; ++w) windows[w] += r.windows[w];
    for (std::size_t l = 0; l < plan.servers[s].size(); ++l) {
      report.server_cache_stats[plan.servers[s][l]] =
          states[s].caches[l]->stats();
    }
  }
  // Fleet totals in global server order, matching the sequential engine.
  for (const cache::CacheStats& stats : report.server_cache_stats) {
    report.cache_totals.merge(stats);
  }
  merge_span.stop();
  merged.finish(report, measured_total);

  if (instrumented) {
    detail::WindowSeries win_series;
    win_series.resolve(*metrics, prefix, /*faults_active=*/false);
    for (const detail::WindowAccumulator& win : windows) {
      if (win.requests > 0) win_series.flush(win);
    }
    merged.publish(*metrics, prefix, /*faults_active=*/false);
    if (per_server) {
      // Global server order, one histogram per server even when its shard
      // saw no traffic — the same snapshot layout as the sequential engine.
      for (std::size_t i = 0; i < n; ++i) {
        obs::Histogram& h = metrics->histogram(
            prefix + "server/" + std::to_string(i) + "/latency_ms",
            obs::default_latency_bounds_ms());
        const std::size_t s = i % shards;
        if (plan.requests[s] > 0) {
          h.merge(results[s].server_latency[i / shards]);
        }
      }
    }
    metrics->gauge(prefix + "parallel/threads")
        .set(static_cast<double>(threads));
    metrics->gauge(prefix + "parallel/shards")
        .set(static_cast<double>(shards));
    for (std::size_t s = 0; s < shards; ++s) {
      metrics->counter(prefix + "shard/" + std::to_string(s) + "/requests")
          .add(plan.requests[s]);
    }
    detail::publish_summary_metrics(*metrics, prefix, config, report,
                                    config.slo_ms > 0.0,
                                    /*faults_active=*/false);
  }
  return report;
}

}  // namespace cdn::sim
