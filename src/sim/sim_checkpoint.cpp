#include "src/sim/sim_checkpoint.h"

#include <string>

#include "src/cdn/system.h"
#include "src/fault/fault_schedule.h"
#include "src/obs/span.h"

namespace cdn::sim {

std::vector<std::uint8_t> serialize_report(const SimulationReport& report) {
  util::ByteWriter w;
  report.latency_cdf.save_state(w);
  w.f64(report.mean_latency_ms);
  w.f64(report.mean_cost_hops);
  w.f64(report.local_ratio);
  w.f64(report.cache_hit_ratio);
  w.u64(report.measured_requests);
  w.u64(report.total_requests);
  w.u64(report.shards_used);
  w.u64(report.failed_requests);
  w.u64(report.failover_requests);
  w.u64(report.retry_attempts);
  w.u64(report.cold_restarts);
  w.u64(report.fault_transitions);
  w.f64(report.availability);
  w.f64(report.slo_violation_fraction);
  w.u64(report.server_cache_stats.size());
  for (const cache::CacheStats& stats : report.server_cache_stats) {
    stats.save_state(w);
  }
  report.cache_totals.save_state(w);
  return w.buffer();
}

std::uint64_t report_digest(const SimulationReport& report) {
  const std::vector<std::uint8_t> bytes = serialize_report(report);
  return util::fnv1a(bytes.data(), bytes.size());
}

namespace detail {

namespace {

std::uint64_t hash_of(const util::ByteWriter& w) {
  return util::fnv1a(w.buffer().data(), w.size());
}

std::uint64_t config_hash(const SimulationConfig& config) {
  util::ByteWriter w;
  w.u64(config.total_requests);
  w.f64(config.warmup_fraction);
  w.u8(static_cast<std::uint8_t>(config.policy));
  w.u8(static_cast<std::uint8_t>(config.staleness));
  w.f64(config.latency.ms_per_hop);
  w.f64(config.latency.first_hop_ms);
  w.f64(config.latency.retry_timeout_ms);
  w.f64(config.latency.retry_backoff_ms);
  w.u64(config.seed);
  w.f64(config.slo_ms);
  w.u64(config.metrics_windows);
  w.u8(config.per_server_metrics ? 1 : 0);
  // Observability shape matters to the payload layout: a checkpoint taken
  // with metrics (or a trace sink) holds window/cause/histogram (or sink)
  // state the resuming run must also expect.
  w.u8(config.metrics != nullptr ? 1 : 0);
  w.u8(config.trace_sink != nullptr ? 1 : 0);
  return hash_of(w);
}

std::uint64_t system_hash(const sys::CdnSystem& system) {
  util::ByteWriter w;
  const auto& catalog = system.catalog();
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const std::size_t l = catalog.objects_per_site();
  w.u64(n);
  w.u64(m);
  w.u64(l);
  w.f64(catalog.object_popularity().theta());
  for (std::size_t j = 0; j < m; ++j) {
    const auto site = static_cast<workload::SiteId>(j);
    w.f64(catalog.uncacheable_fraction(site));
    for (std::size_t k = 1; k <= l; ++k) {
      w.u64(catalog.object_bytes(site, k));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.u64(system.server_storage(static_cast<sys::ServerIndex>(i)));
    for (const double d :
         system.demand().row(static_cast<workload::ServerId>(i))) {
      w.f64(d);
    }
  }
  return hash_of(w);
}

std::uint64_t placement_hash(const sys::CdnSystem& system,
                             const placement::PlacementResult& result) {
  util::ByteWriter w;
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  w.str(result.algorithm);
  w.u8(result.caching_enabled ? 1 : 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto server = static_cast<sys::ServerIndex>(i);
    w.u64(result.cache_bytes(server));
    for (std::size_t j = 0; j < m; ++j) {
      const auto site = static_cast<sys::SiteIndex>(j);
      w.u8(result.placement.is_replicated(server, site) ? 1 : 0);
      const sys::NearestCopy& copy = result.nearest.nearest(server, site);
      w.u8(copy.at_primary ? 1 : 0);
      w.u32(static_cast<std::uint32_t>(copy.server));
      w.f64(copy.cost);
    }
  }
  return hash_of(w);
}

std::uint64_t faults_hash(const SimulationConfig& config) {
  const std::string text =
      config.faults != nullptr ? config.faults->serialize() : std::string();
  return util::fnv1a(text.data(), text.size());
}

std::uint64_t engine_hash(EngineKind engine, std::size_t shards) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(engine));
  w.u64(shards);
  return hash_of(w);
}

}  // namespace

std::vector<recover::FingerprintSection> checkpoint_fingerprint(
    const sys::CdnSystem& system, const placement::PlacementResult& result,
    const SimulationConfig& config, EngineKind engine, std::size_t shards) {
  return {
      {"config", config_hash(config)},
      {"system", system_hash(system)},
      {"placement", placement_hash(system, result)},
      {"faults", faults_hash(config)},
      {"engine", engine_hash(engine, shards)},
  };
}

RunProbes::RunProbes(const sys::CdnSystem& system,
                     const placement::PlacementResult& result,
                     const SimulationConfig& config, EngineKind engine,
                     std::size_t shards)
    : config_(config),
      recovery_active_(!config.checkpoint_path.empty() ||
                       !config.resume_path.empty() || config.stop != nullptr) {
  if (!recovery_active_) return;
  fingerprint_ = checkpoint_fingerprint(system, result, config, engine, shards);
  if (config.spans != nullptr) {
    sp_checkpoint_ =
        config.spans->intern(config.metrics_prefix + "checkpoint/write");
  }
  if (config.metrics != nullptr) {
    const std::string& prefix = config.metrics_prefix;
    rc_written_ = &config.metrics->counter(prefix + "recover/checkpoints_written");
    rc_bytes_ = &config.metrics->counter(prefix + "recover/bytes");
    rc_last_ms_ = &config.metrics->gauge(prefix + "recover/last_checkpoint_ms");
  }
}

std::uint64_t RunProbes::resume(const RestoreFn& restore) {
  last_checkpoint_time_ = std::chrono::steady_clock::now();
  if (!config_.resume_path.empty()) {
    const std::string& prefix = config_.metrics_prefix;
    obs::ScopedSpan span(
        config_.spans,
        config_.spans ? config_.spans->intern(prefix + "checkpoint/resume")
                      : nullptr,
        "recover");
    const recover::Checkpoint ckpt = recover::read_file(config_.resume_path);
    recover::check_fingerprint(ckpt, fingerprint_);
    util::ByteReader reader(ckpt.payload);
    resume_index_ = restore(reader);
    last_written_ = resume_index_;
    if (config_.metrics != nullptr) {
      config_.metrics->gauge(prefix + "recover/resumed").set(1.0);
      config_.metrics->gauge(prefix + "recover/resume_request_index")
          .set(static_cast<double>(resume_index_));
    }
    span.arg("request", static_cast<double>(resume_index_));
  }
  run_start_ = std::chrono::steady_clock::now();
  return resume_index_;
}

void RunProbes::checkpoint(std::uint64_t done, const SaveFn& save) {
  const bool stop_requested =
      config_.stop != nullptr && config_.stop->load(std::memory_order_relaxed);
  const std::string& path = config_.checkpoint_path;
  bool write = !path.empty() &&
               (config_.checkpoint_every_requests > 0 || stop_requested);
  if (!write && !path.empty() && config_.checkpoint_every_seconds > 0.0) {
    write = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          last_checkpoint_time_)
                .count() >= config_.checkpoint_every_seconds;
  }
  if (write && done > last_written_) {
    obs::ScopedSpan span(config_.spans, sp_checkpoint_, "recover");
    span.arg("request", static_cast<double>(done));
    const auto write_start = std::chrono::steady_clock::now();
    recover::Checkpoint ckpt;
    ckpt.fingerprint = fingerprint_;
    util::ByteWriter w;
    save(w);
    ckpt.payload = w.buffer();
    const std::uint64_t bytes = recover::write_file(path, ckpt);
    last_checkpoint_time_ = std::chrono::steady_clock::now();
    last_written_ = done;
    ++checkpoints_written_;
    if (rc_written_ != nullptr) {
      rc_written_->add();
      rc_bytes_->add(bytes);
      rc_last_ms_->set(std::chrono::duration<double, std::milli>(
                           last_checkpoint_time_ - write_start)
                           .count());
    }
  }
  if (stop_requested) throw recover::Interrupted(done, path);
}

SimulationProgress RunProbes::progress(std::uint64_t done, std::uint64_t total,
                                       bool warming_up,
                                       std::uint64_t eligible,
                                       std::uint64_t eligible_hits) const {
  SimulationProgress p;
  p.completed = done;
  p.total = total;
  p.warming_up = warming_up;
  p.hit_ratio_known = eligible > 0;
  if (p.hit_ratio_known) {
    p.hit_ratio =
        static_cast<double>(eligible_hits) / static_cast<double>(eligible);
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - run_start_)
                             .count();
  if (elapsed > 0.0 && done > resume_index_) {
    p.requests_per_sec = static_cast<double>(done - resume_index_) / elapsed;
    p.eta_seconds = static_cast<double>(total - done) / p.requests_per_sec;
  }
  p.checkpoints_written = checkpoints_written_;
  p.last_checkpoint_request = checkpoints_written_ > 0 ? last_written_ : 0;
  return p;
}

}  // namespace detail
}  // namespace cdn::sim
