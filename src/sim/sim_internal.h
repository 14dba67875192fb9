// Internals shared by the event engines (simulator.cpp, shard_engine.cpp)
// and the flow engine: the measured-window accumulator and its series
// flush, the phase timer/span scope, the end-of-run metric publication, and
// the seed derivation of per-shard RNG substreams.  Per-request semantics
// live in request_kernel.h.  Not part of the public sim API.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>

#include "src/obs/registry.h"
#include "src/obs/scoped_timer.h"
#include "src/obs/span.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace cdn::sim::detail {

/// Relative error bound of the bounded-memory latency quantile sketch the
/// parallel and flow engines keep (the sequential engine keeps exact
/// samples).
constexpr double kLatencySketchError = 0.005;

/// Measured-window accumulator, flushed into the registry's per-window
/// series every measured/metrics_windows requests.  The parallel engine
/// keeps one vector of these per shard and sums them per window index.
struct WindowAccumulator {
  std::uint64_t requests = 0;
  std::uint64_t local = 0;
  std::uint64_t eligible = 0;
  std::uint64_t eligible_hits = 0;
  double hops = 0.0;
  double latency_ms = 0.0;
  // Degraded-mode extras (stay zero on a healthy run).
  std::uint64_t failed = 0;
  std::uint64_t failover = 0;
  double degraded_latency_ms = 0.0;  // latency sum of failover requests

  WindowAccumulator& operator+=(const WindowAccumulator& o) {
    requests += o.requests;
    local += o.local;
    eligible += o.eligible;
    eligible_hits += o.eligible_hits;
    hops += o.hops;
    latency_ms += o.latency_ms;
    failed += o.failed;
    failover += o.failover;
    degraded_latency_ms += o.degraded_latency_ms;
    return *this;
  }
};

/// Resolved series pointers of the per-window time series (all null when
/// metrics are disabled; the fault series are additionally null when no
/// fault schedule is active, keeping healthy snapshots unchanged).
struct WindowSeries {
  obs::Series* requests = nullptr;
  obs::Series* local = nullptr;
  obs::Series* eligible = nullptr;
  obs::Series* eligible_hits = nullptr;
  obs::Series* hops = nullptr;
  obs::Series* hit_ratio = nullptr;
  obs::Series* local_ratio = nullptr;
  obs::Series* mean_hops = nullptr;
  obs::Series* mean_latency_ms = nullptr;
  obs::Series* failed = nullptr;
  obs::Series* failover = nullptr;
  obs::Series* availability = nullptr;
  obs::Series* degraded_mean_latency_ms = nullptr;

  /// Resolves the series under `prefix` in `metrics`; the fault series
  /// only with `faults_active`, keeping healthy snapshots free of them.
  void resolve(obs::Registry& metrics, const std::string& prefix,
               bool faults_active) {
    requests = &metrics.series(prefix + "window/requests");
    local = &metrics.series(prefix + "window/local");
    eligible = &metrics.series(prefix + "window/eligible");
    eligible_hits = &metrics.series(prefix + "window/eligible_hits");
    hops = &metrics.series(prefix + "window/hops");
    hit_ratio = &metrics.series(prefix + "window/hit_ratio");
    local_ratio = &metrics.series(prefix + "window/local_ratio");
    mean_hops = &metrics.series(prefix + "window/mean_hops");
    mean_latency_ms = &metrics.series(prefix + "window/mean_latency_ms");
    if (faults_active) {
      failed = &metrics.series(prefix + "window/failed");
      failover = &metrics.series(prefix + "window/failover");
      availability = &metrics.series(prefix + "window/availability");
      degraded_mean_latency_ms =
          &metrics.series(prefix + "window/degraded_mean_latency_ms");
    }
  }

  void flush(const WindowAccumulator& win) const {
    const double n = static_cast<double>(win.requests);
    // Failed requests never complete, so they are excluded from the mean
    // latency (they are 0 on a healthy run, keeping the division intact).
    const double completed = static_cast<double>(win.requests - win.failed);
    requests->push(n);
    local->push(static_cast<double>(win.local));
    eligible->push(static_cast<double>(win.eligible));
    eligible_hits->push(static_cast<double>(win.eligible_hits));
    hops->push(win.hops);
    hit_ratio->push(win.eligible ? static_cast<double>(win.eligible_hits) /
                                       static_cast<double>(win.eligible)
                                 : 0.0);
    local_ratio->push(win.requests ? static_cast<double>(win.local) / n : 0.0);
    mean_hops->push(win.requests ? win.hops / n : 0.0);
    mean_latency_ms->push(completed > 0.0 ? win.latency_ms / completed : 0.0);
    if (failed != nullptr) {
      failed->push(static_cast<double>(win.failed));
      failover->push(static_cast<double>(win.failover));
      availability->push(
          win.requests ? 1.0 - static_cast<double>(win.failed) / n : 1.0);
      degraded_mean_latency_ms->push(
          win.failover ? win.degraded_latency_ms /
                             static_cast<double>(win.failover)
                       : 0.0);
    }
  }
};

/// Times one engine phase into the "phase/<name>" timer and a "<name>"
/// span, both under the run's metrics prefix and both optional.
class PhaseScope {
 public:
  PhaseScope(const SimulationConfig& config, const char* name)
      : timer_(config.metrics != nullptr
                   ? &config.metrics->timer(config.metrics_prefix + "phase/" +
                                            name)
                   : nullptr),
        span_(config.spans,
              config.spans != nullptr
                  ? config.spans->intern(config.metrics_prefix + name)
                  : nullptr,
              "sim") {}

 private:
  obs::ScopedTimer timer_;
  obs::ScopedSpan span_;
};

/// End-of-run summary metrics, shared verbatim by both engines so a
/// parallel snapshot has the same layout as a sequential one.
inline void publish_summary_metrics(obs::Registry& metrics,
                                    const std::string& prefix,
                                    const SimulationConfig& config,
                                    const SimulationReport& report,
                                    bool slo_active, bool faults_active) {
  metrics.counter(prefix + "requests_total").add(report.total_requests);
  metrics.counter(prefix + "requests_measured").add(report.measured_requests);
  metrics.gauge(prefix + "cache_hit_ratio").set(report.cache_hit_ratio);
  metrics.gauge(prefix + "local_ratio").set(report.local_ratio);
  metrics.gauge(prefix + "mean_cost_hops").set(report.mean_cost_hops);
  metrics.gauge(prefix + "mean_latency_ms").set(report.mean_latency_ms);
  metrics.counter(prefix + "cache/hits").add(report.cache_totals.hits());
  metrics.counter(prefix + "cache/misses").add(report.cache_totals.misses());
  metrics.counter(prefix + "cache/admissions")
      .add(report.cache_totals.admissions());
  metrics.counter(prefix + "cache/evictions")
      .add(report.cache_totals.evictions());
  metrics.counter(prefix + "cache/bytes_churned")
      .add(report.cache_totals.bytes_churned());
  if (slo_active) {
    metrics.gauge(prefix + "slo_violation_fraction")
        .set(report.slo_violation_fraction);
  }
  if (faults_active) {
    metrics.gauge(prefix + "availability").set(report.availability);
    metrics.counter(prefix + "fault/failed").add(report.failed_requests);
    metrics.counter(prefix + "fault/failover").add(report.failover_requests);
    metrics.counter(prefix + "fault/cold_restarts").add(report.cold_restarts);
    metrics.counter(prefix + "fault/transitions")
        .add(report.fault_transitions);
  }
  if (config.per_server_metrics) {
    for (std::size_t i = 0; i < report.server_cache_stats.size(); ++i) {
      metrics.gauge(prefix + "server/" + std::to_string(i) + "/hit_ratio")
          .set(report.server_cache_stats[i].hit_ratio());
    }
  }
}

/// Resolves the configured thread count (0 = one per hardware thread).
inline std::size_t resolve_threads(std::size_t configured) {
  if (configured != 0) return configured;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Independent substream seed for (seed, shard, salt) — SplitMix64 over a
/// salted mix, the same construction as util::Rng::fork but reproducible
/// from the plain config seed.
inline std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t stream,
                                    std::uint64_t salt) noexcept {
  std::uint64_t mix = seed ^ (salt * (stream + 1));
  return util::splitmix64(mix);
}

}  // namespace cdn::sim::detail
