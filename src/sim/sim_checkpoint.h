// Checkpoint support of the simulation engines (see docs/RECOVERY.md):
// the fingerprint of a run's immutable inputs, shared state-serialisation
// helpers, and the canonical byte form of a SimulationReport used by the
// byte-identity tests and the CI kill-and-resume diff.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/recover/checkpoint.h"
#include "src/sim/sim_internal.h"
#include "src/sim/simulator.h"

namespace cdn::sim {

/// Canonical byte serialisation of a report: every double as its exact bit
/// pattern, every counter, the full latency distribution and per-server
/// cache statistics.  Two reports are byte-identical iff these buffers are.
std::vector<std::uint8_t> serialize_report(const SimulationReport& report);

/// FNV-1a digest of serialize_report() — a printable identity for CI diffs.
std::uint64_t report_digest(const SimulationReport& report);

namespace detail {

/// Which engine wrote a checkpoint.  Part of the fingerprint: a sequential
/// checkpoint cannot resume a parallel run or vice versa, and the parallel
/// shard count must match exactly (the thread count may differ — it never
/// affects a result bit).
enum class EngineKind : std::uint8_t { kSequential = 0, kParallel = 1 };

/// Computes the named fingerprint sections of one run: "config", "system",
/// "placement", "faults" and "engine".  Resume recomputes these and lets
/// recover::check_fingerprint diff them against the file's.
std::vector<recover::FingerprintSection> checkpoint_fingerprint(
    const sys::CdnSystem& system, const placement::PlacementResult& result,
    const SimulationConfig& config, EngineKind engine, std::size_t shards);

/// Checkpoint and progress bookkeeping shared by both event engines.  The
/// engine decides *when* to probe (request cadence or shard barrier) and
/// how to serialise itself; this decides whether a probe writes, performs
/// the write (span, recover/* metrics), handles resume and the stop flag,
/// and builds the progress snapshot.
class RunProbes {
 public:
  using SaveFn = std::function<void(util::ByteWriter&)>;
  using RestoreFn = std::function<std::uint64_t(util::ByteReader&)>;

  RunProbes(const sys::CdnSystem& system,
            const placement::PlacementResult& result,
            const SimulationConfig& config, EngineKind engine,
            std::size_t shards);

  /// Any checkpoint path, resume path or stop flag configured.
  bool recovery_active() const noexcept { return recovery_active_; }

  /// Restores from config.resume_path when set; `restore` reads the
  /// payload and returns the request index it covers.  Returns that index
  /// (0 for a fresh run) and starts the run clock.
  std::uint64_t resume(const RestoreFn& restore);

  /// A probe point after `done` requests: writes a checkpoint when one is
  /// due (request cadence, stop flag, or elapsed time) and covers new
  /// requests, then throws recover::Interrupted if a stop was requested.
  void checkpoint(std::uint64_t done, const SaveFn& save);

  /// Progress snapshot after `done` of `total` requests.
  SimulationProgress progress(std::uint64_t done, std::uint64_t total,
                              bool warming_up, std::uint64_t eligible,
                              std::uint64_t eligible_hits) const;

 private:
  const SimulationConfig& config_;
  bool recovery_active_;
  std::vector<recover::FingerprintSection> fingerprint_;
  const char* sp_checkpoint_ = nullptr;
  obs::Counter* rc_written_ = nullptr;
  obs::Counter* rc_bytes_ = nullptr;
  obs::Gauge* rc_last_ms_ = nullptr;
  std::chrono::steady_clock::time_point run_start_;
  std::chrono::steady_clock::time_point last_checkpoint_time_;
  std::uint64_t resume_index_ = 0;
  std::uint64_t last_written_ = 0;  // request index of the newest file
  std::uint64_t checkpoints_written_ = 0;  // by this process
};

inline void save_rng(util::ByteWriter& w, const util::Rng& rng) {
  for (const std::uint64_t word : rng.state()) w.u64(word);
}

inline void restore_rng(util::ByteReader& r, util::Rng& rng) {
  std::array<std::uint64_t, 4> state;
  for (auto& word : state) word = r.u64();
  rng.set_state(state);
}

inline void save_window(util::ByteWriter& w, const WindowAccumulator& win) {
  w.u64(win.requests);
  w.u64(win.local);
  w.u64(win.eligible);
  w.u64(win.eligible_hits);
  w.f64(win.hops);
  w.f64(win.latency_ms);
  w.u64(win.failed);
  w.u64(win.failover);
  w.f64(win.degraded_latency_ms);
}

inline void restore_window(util::ByteReader& r, WindowAccumulator& win) {
  win.requests = r.u64();
  win.local = r.u64();
  win.eligible = r.u64();
  win.eligible_hits = r.u64();
  win.hops = r.f64();
  win.latency_ms = r.f64();
  win.failed = r.u64();
  win.failover = r.u64();
  win.degraded_latency_ms = r.f64();
}

}  // namespace detail
}  // namespace cdn::sim
