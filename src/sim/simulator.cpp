#include "src/sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "src/sim/flow_engine.h"
#include "src/sim/request_kernel.h"
#include "src/sim/shard_engine.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/sim_internal.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/workload/request_stream.h"

namespace cdn::sim {

void SimulationConfig::validate() const {
  CDN_EXPECT(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
             "warmup fraction must be in [0, 1)");
  CDN_EXPECT(metrics_windows >= 1, "need at least one metrics window");
  CDN_EXPECT(total_requests > 0, "need at least one request");
  CDN_EXPECT(slo_ms >= 0.0, "SLO threshold must be non-negative");
  CDN_EXPECT(latency.retry_timeout_ms >= 0.0 && latency.retry_backoff_ms >= 0.0,
             "retry latency penalties must be non-negative");
  CDN_EXPECT(std::isfinite(checkpoint_every_seconds) &&
                 checkpoint_every_seconds >= 0.0,
             "checkpoint time cadence must be a non-negative finite number "
             "of seconds");
  const bool checkpoint_cadence =
      checkpoint_every_requests > 0 || checkpoint_every_seconds > 0.0;
  CDN_EXPECT(!checkpoint_cadence || !checkpoint_path.empty(),
             "a checkpoint cadence requires a checkpoint path "
             "(--checkpoint-out)");
  CDN_EXPECT(checkpoint_path.empty() || checkpoint_cadence || stop != nullptr,
             "a checkpoint path needs a trigger: a request or seconds "
             "cadence, or a stop flag");
  if (engine == SimEngine::kFlow) {
    // The flow engine has no per-request loop, so every per-request feature
    // is meaningless there.  Reject loudly instead of silently ignoring —
    // a user who asked for a trace or a checkpoint must not get a report
    // that quietly dropped it.
    CDN_EXPECT(faults == nullptr || faults->empty(),
               "fault schedules need per-request failover decisions; "
               "use --engine=event for fault-injection runs");
    CDN_EXPECT(trace_sink == nullptr,
               "per-request trace sampling needs the event engine; "
               "use --engine=event or drop --trace-out");
    CDN_EXPECT(checkpoint_path.empty() && resume_path.empty() &&
                   stop == nullptr && !checkpoint_cadence,
               "checkpoint/resume makes no sense for the flow engine (runs "
               "complete in milliseconds); use --engine=event");
  }
}

namespace {

/// Longest chunk of requests served between two boundary checks.
constexpr std::uint64_t kChunkMax = 4096;
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// The sequential event engine: one chunked loop over the global request
/// clock for every run, healthy or fault-injected.
///
/// Each chunk is a request batch (the stream's next batch, or surge-filtered
/// draws while a surge is active) served by the request kernel.  A chunk
/// ends at the warm-up edge, a window flush, a recovery probe, a progress
/// tick, or the next fault transition, so all rare-event work happens
/// between chunks and the fault state is constant inside one.  Boundary work runs in a fixed order — window flush, then
/// recovery probe, then progress — which keeps reports and checkpoint
/// payloads identical to a request-at-a-time loop (tests/reference_sim.h).
class SequentialEngine {
 public:
  SequentialEngine(const sys::CdnSystem& system,
                   const placement::PlacementResult& result,
                   const SimulationConfig& config);

  void run() { timeline_ ? run_chunks<true>() : run_chunks<false>(); }
  SimulationReport report();

 private:
  template <bool kFaults>
  void run_chunks();
  /// Fills batch_ with the next `count` requests.
  void fill(std::size_t count, bool surge);
  void save_state(util::ByteWriter& w, std::uint64_t next_t) const;
  std::uint64_t restore_state(util::ByteReader& r);

  const SimulationConfig& config_;
  detail::ServeInputs inputs_;
  std::vector<std::unique_ptr<cache::CachePolicy>> caches_;
  std::vector<cache::CachePolicy*> cache_slots_;  // by server id
  workload::RequestStream stream_;
  util::Rng lambda_rng_;
  util::Rng surge_rng_;
  std::optional<fault::FaultTimeline> timeline_;
  const char* sp_fault_ = nullptr;
  std::uint64_t total_;
  std::uint64_t warmup_;
  std::uint64_t measured_total_;
  std::uint64_t cold_restarts_ = 0;
  detail::Tally tally_;
  workload::RequestBatch batch_;

  // Metrics (all inert when config.metrics is null).
  bool instrumented_;
  detail::WindowSeries win_series_;
  detail::WindowAccumulator win_;
  std::vector<detail::WindowAccumulator> flushed_windows_;  // for checkpoints
  std::vector<obs::Histogram*> server_latency_;             // by server id
  std::size_t window_count_ = 0;
  std::uint64_t window_index_ = 0;
  std::uint64_t next_window_flush_;

  detail::RunProbes probes_;
};

SequentialEngine::SequentialEngine(const sys::CdnSystem& system,
                                   const placement::PlacementResult& result,
                                   const SimulationConfig& config)
    : config_(config),
      inputs_(system, result, config),
      stream_(system.catalog(), system.demand(), config.seed),
      lambda_rng_(config.seed ^ 0x5bd1e995u),
      surge_rng_(config.seed ^ 0x9e3779b9u),
      instrumented_(config.metrics != nullptr),
      probes_(system, result, config, detail::EngineKind::kSequential, 1) {
  const std::size_t n = system.server_count();
  // One cache per server, sized by what the placement left free.
  caches_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    caches_.push_back(cache::make_cache(
        config.policy, result.cache_bytes(static_cast<sys::ServerIndex>(i))));
    cache_slots_.push_back(caches_.back().get());
  }

  total_ = config.total_requests;
  warmup_ = static_cast<std::uint64_t>(config.warmup_fraction *
                                       static_cast<double>(total_));
  measured_total_ = total_ - warmup_;
  CDN_CHECK(measured_total_ > 0, "warm-up consumed every request");
  next_window_flush_ = total_;  // never inside the run unless instrumented

  const bool faults_active =
      config.faults != nullptr && !config.faults->empty();
  if (faults_active) {
    timeline_.emplace(*config.faults, n, system.site_count());
    inputs_.attach_faults(*timeline_);
    if (config.spans != nullptr) {
      sp_fault_ = config.spans->intern(config.metrics_prefix +
                                       "fault/transition");
    }
  }
  tally_.latency.reserve(measured_total_);
  tally_.slo_ms = config.slo_ms;

  if (instrumented_) {
    obs::Registry& metrics = *config.metrics;
    const std::string& prefix = config.metrics_prefix;
    win_series_.resolve(metrics, prefix, faults_active);
    if (config.per_server_metrics) {
      for (std::size_t i = 0; i < n; ++i) {
        server_latency_.push_back(&metrics.histogram(
            prefix + "server/" + std::to_string(i) + "/latency_ms",
            obs::default_latency_bounds_ms()));
      }
      tally_.server_latency = server_latency_.data();
    }
    tally_.window = &win_;
    // Window w covers [warmup + w*M/W, warmup + (w+1)*M/W); the last
    // boundary is exactly `total`, so every measured request lands in a
    // window and the flushed series sum back to the aggregates.
    window_count_ = std::max<std::size_t>(
        1, std::min<std::size_t>(config.metrics_windows, measured_total_));
    next_window_flush_ = warmup_ + measured_total_ / window_count_;
  }
}

void SequentialEngine::fill(std::size_t count, bool surge) {
  if (!surge) {
    stream_.next_batch(batch_, count);
    return;
  }
  batch_.resize(count);
  // Flash-crowd reshaping: accept a drawn request with probability
  // proportional to its site's surge multiplier (rejection sampling against
  // the current max), which samples site j with probability ∝ p_j * mult_j
  // without touching the demand matrix.
  const double bound = timeline_->max_demand_multiplier();
  for (std::size_t i = 0; i < count; ++i) {
    workload::Request req = stream_.next();
    while (surge_rng_.uniform() * bound >
           timeline_->demand_multiplier(req.site)) {
      req = stream_.next();
    }
    batch_.server[i] = req.server;
    batch_.site[i] = req.site;
    batch_.rank[i] = req.rank;
  }
}

template <bool kFaults>
void SequentialEngine::run_chunks() {
  std::uint64_t t = probes_.resume(
      [this](util::ByteReader& r) { return restore_state(r); });
  if constexpr (kFaults) {
    // The fault timeline is a pure function of (schedule, t): one advance
    // re-derives the stepper position, depth counters and transition count.
    // Cold restarts up to the resume point are already reflected in the
    // restored caches, so just_recovered() is deliberately ignored here.
    if (t > 0) timeline_->advance(t - 1);
  }
  const std::uint64_t progress_every =
      config_.progress ? config_.progress_every : 0;
  std::uint64_t next_progress =
      progress_every > 0 ? (t / progress_every + 1) * progress_every : kNever;
  const std::uint64_t probe_stride = config_.checkpoint_every_requests > 0
                                         ? config_.checkpoint_every_requests
                                         : 4096;
  std::uint64_t next_probe =
      !config_.checkpoint_path.empty() || config_.stop != nullptr
          ? (t / probe_stride + 1) * probe_stride
          : kNever;
  const auto save = [&](util::ByteWriter& w) { save_state(w, t); };

  while (t < total_) {
    // Reset measured-window statistics exactly at the end of warm-up.
    if (t == warmup_) {
      for (auto& c : caches_) c->reset_stats();
    }
    std::uint64_t end = std::min(
        {total_, t + kChunkMax, next_window_flush_, next_probe, next_progress});
    if (t < warmup_) end = std::min(end, warmup_);
    bool surge = false;
    if constexpr (kFaults) {
      if (timeline_->advance(t)) {
        // A recovered server restarts with a COLD cache: whatever it held
        // when it crashed is gone.  Its statistics survive (clear() keeps
        // them) so fleet totals stay consistent.
        for (const std::uint32_t s : timeline_->just_recovered()) {
          caches_[s]->clear();
          ++cold_restarts_;
        }
        if (config_.spans != nullptr) {
          config_.spans->instant(sp_fault_, "fault", "request",
                                 static_cast<double>(t));
        }
      }
      end = std::min(end, timeline_->next_transition_time());
      surge = timeline_->any_surge_active();
    }
    fill(static_cast<std::size_t>(end - t), surge);
    const bool measured = t >= warmup_;
    detail::serve_batch<kFaults>(inputs_, cache_slots_.data(), lambda_rng_,
                                 batch_, measured ? &tally_ : nullptr,
                                 config_.trace_sink, t);
    t = end;

    if (instrumented_ && measured && t >= next_window_flush_) {
      win_series_.flush(win_);
      if (probes_.recovery_active()) flushed_windows_.push_back(win_);
      win_ = detail::WindowAccumulator{};
      ++window_index_;
      next_window_flush_ =
          warmup_ + (window_index_ + 1) * measured_total_ / window_count_;
    }
    if (t >= next_probe) {
      next_probe += probe_stride;
      probes_.checkpoint(t, save);
    }
    if (t >= next_progress) {
      next_progress += progress_every;
      config_.progress(probes_.progress(t, total_, t <= warmup_,
                                        tally_.eligible, tally_.eligible_hits));
    }
  }
  // Flush a final partial window (rounding can leave the last flush short).
  if (instrumented_ && win_.requests > 0) win_series_.flush(win_);
}

void SequentialEngine::save_state(util::ByteWriter& w,
                                  std::uint64_t next_t) const {
  w.u64(next_t);
  stream_.save_state(w);
  detail::save_rng(w, lambda_rng_);
  detail::save_rng(w, surge_rng_);
  w.u64(cold_restarts_);
  w.f64(tally_.hop_sum);
  w.u64(tally_.local);
  w.u64(tally_.eligible);
  w.u64(tally_.eligible_hits);
  w.u64(tally_.failed);
  w.u64(tally_.failover);
  w.u64(tally_.retries);
  w.u64(tally_.slo_violations);
  w.u64(caches_.size());
  for (const auto& c : caches_) c->save_state(w);
  tally_.latency.save_state(w);
  w.u8(instrumented_ ? 1 : 0);
  if (instrumented_) {
    w.u64(window_index_);
    detail::save_window(w, win_);
    w.u64(flushed_windows_.size());
    for (const auto& fw : flushed_windows_) detail::save_window(w, fw);
    for (const std::uint64_t c : tally_.causes) w.u64(c);
    w.u64(tally_.retries);
    w.u8(server_latency_.empty() ? 0 : 1);
    if (!server_latency_.empty()) {
      w.u64(server_latency_.size());
      for (const obs::Histogram* h : server_latency_) h->save_state(w);
    }
  }
  w.u8(config_.trace_sink != nullptr ? 1 : 0);
  if (config_.trace_sink != nullptr) config_.trace_sink->save_state(w);
}

std::uint64_t SequentialEngine::restore_state(util::ByteReader& r) {
  const std::uint64_t resumed_t = r.u64();
  CDN_EXPECT(resumed_t <= total_,
             "checkpoint request index exceeds the run length");
  stream_.restore_state(r);
  detail::restore_rng(r, lambda_rng_);
  detail::restore_rng(r, surge_rng_);
  cold_restarts_ = r.u64();
  tally_.hop_sum = r.f64();
  tally_.local = r.u64();
  tally_.eligible = r.u64();
  tally_.eligible_hits = r.u64();
  tally_.failed = r.u64();
  tally_.failover = r.u64();
  tally_.retries = r.u64();
  tally_.slo_violations = r.u64();
  CDN_EXPECT(r.u64() == caches_.size(), "checkpoint server count mismatch");
  for (auto& c : caches_) c->restore_state(r);
  tally_.latency.restore_state(r);
  const bool had_metrics = r.u8() != 0;
  CDN_EXPECT(had_metrics == instrumented_,
             "checkpoint metrics presence mismatch");
  if (instrumented_) {
    window_index_ = r.u64();
    detail::restore_window(r, win_);
    const std::uint64_t flushed = r.u64();
    CDN_EXPECT(flushed <= window_count_,
               "checkpoint flushed-window count exceeds the window count");
    flushed_windows_.clear();
    for (std::uint64_t i = 0; i < flushed; ++i) {
      detail::WindowAccumulator fw;
      detail::restore_window(r, fw);
      // Replay pre-kill flushes into the fresh registry so the final
      // per-window series match an uninterrupted run's.
      win_series_.flush(fw);
      flushed_windows_.push_back(fw);
    }
    next_window_flush_ =
        warmup_ + (window_index_ + 1) * measured_total_ / window_count_;
    for (std::uint64_t& c : tally_.causes) c = r.u64();
    r.u64();  // the retry counter, already restored with the tally
    const bool had_server = r.u8() != 0;
    CDN_EXPECT(had_server == !server_latency_.empty(),
               "checkpoint per-server metrics mismatch");
    if (had_server) {
      CDN_EXPECT(r.u64() == server_latency_.size(),
                 "checkpoint per-server histogram count mismatch");
      for (obs::Histogram* h : server_latency_) h->restore_state(r);
    }
  }
  const bool had_sink = r.u8() != 0;
  CDN_EXPECT(had_sink == (config_.trace_sink != nullptr),
             "checkpoint trace sink presence mismatch");
  if (config_.trace_sink != nullptr) config_.trace_sink->restore_state(r);
  CDN_EXPECT(r.done(), "checkpoint payload has trailing bytes");
  return resumed_t;
}

SimulationReport SequentialEngine::report() {
  SimulationReport report;
  report.total_requests = total_;
  tally_.finish(report, measured_total_);
  report.cold_restarts = cold_restarts_;
  if (timeline_) report.fault_transitions = timeline_->transitions();
  report.server_cache_stats.reserve(caches_.size());
  for (const auto& c : caches_) {
    report.server_cache_stats.push_back(c->stats());
    report.cache_totals.merge(c->stats());
  }
  if (instrumented_) {
    const bool faults_active = timeline_.has_value();
    tally_.publish(*config_.metrics, config_.metrics_prefix, faults_active);
    detail::publish_summary_metrics(*config_.metrics, config_.metrics_prefix,
                                    config_, report, config_.slo_ms > 0.0,
                                    faults_active);
  }
  return report;
}

SimulationReport simulate_sequential(const sys::CdnSystem& system,
                                     const placement::PlacementResult& result,
                                     const SimulationConfig& config) {
  std::optional<SequentialEngine> engine;
  {
    const detail::PhaseScope phase(config, "setup");
    engine.emplace(system, result, config);
  }
  {
    const detail::PhaseScope phase(config, "run");
    engine->run();
  }
  const detail::PhaseScope phase(config, "report");
  return engine->report();
}

}  // namespace

SimulationReport simulate(const sys::CdnSystem& system,
                          const placement::PlacementResult& result,
                          const SimulationConfig& config) {
  config.validate();
  if (config.engine == SimEngine::kFlow) {
    return simulate_flow(system, result, config);
  }
  // Healthy runs may shard; a fault schedule or a trace sink needs the
  // global request clock and stays sequential.
  const bool faults_active =
      config.faults != nullptr && !config.faults->empty();
  const std::size_t threads = detail::resolve_threads(config.threads);
  if (threads > 1 && !faults_active && config.trace_sink == nullptr) {
    return simulate_parallel(system, result, config, threads);
  }
  return simulate_sequential(system, result, config);
}

}  // namespace cdn::sim
