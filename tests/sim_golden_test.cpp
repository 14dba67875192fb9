// Golden pins of the event simulator: absolute digests of reports, registry
// contents, sampled trace events and checkpoint payloads, recorded once and
// compared literally.  The differential tests (batch parity, kill/resume,
// parallel determinism) compare the engine against itself, so a change that
// shifted every path consistently would pass them; these literals would not.
//
// A literal changes only when the simulated semantics change on purpose —
// then re-record it and say why in the commit.  Host-tuned builds
// (HYBRIDCDN_NATIVE, -march=native) may contract floating-point operations
// differently and are skipped.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/placement/hybrid_greedy.h"
#include "src/recover/checkpoint.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/serial.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;
using cdn::sim::report_digest;
using cdn::sim::simulate;
using cdn::sim::SimulationConfig;
using cdn::sim::StalenessMode;
using cdn::test::TestSystem;

constexpr std::uint64_t kRequests = 80'000;
constexpr std::uint64_t kSeed = 31;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

#define EXPECT_DIGEST(actual, expected) \
  EXPECT_EQ(hex(actual), hex(expected)) << #actual

class SimGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef HYBRIDCDN_NATIVE
    GTEST_SKIP() << "golden digests assume the portable (non-native) build";
#endif
    t_ = TestSystem::make(8);
    t_.catalog->set_uncacheable_fraction(0.2);
    placement_.emplace(placement::hybrid_greedy(*t_.system));
  }

  SimulationConfig config() const {
    SimulationConfig cfg;
    cfg.total_requests = kRequests;
    cfg.warmup_fraction = 0.3;
    cfg.seed = kSeed;
    return cfg;
  }

  /// Server outage (with a cold restart), origin outage, link degradation
  /// and a demand surge, all inside the run.
  static fault::FaultSchedule schedule() {
    fault::FaultSchedule s;
    s.add_server_outage(1, 20'000, 55'000);
    s.add_origin_outage(0, 30'000, 50'000);
    s.add_link_degradation(2, 25'000, 65'000, 4.0);
    s.add_demand_surge(7, 40'000, 70'000, 10.0);
    return s;
  }

  std::uint64_t run(const SimulationConfig& cfg) const {
    return report_digest(simulate(*t_.system, *placement_, cfg));
  }

  TestSystem t_;
  std::optional<placement::PlacementResult> placement_;
};

/// FNV-1a over the registry's deterministic sections (counters, gauges,
/// histograms, series); timers and everything after them are wall-clock.
std::uint64_t registry_digest(const obs::Registry& registry) {
  const std::string json = registry.to_json();
  const std::size_t cut = json.find("\"tables\"");
  EXPECT_NE(cut, std::string::npos);
  return util::fnv1a(json.data(), cut);
}

/// FNV-1a over every field of every retained trace event.
std::uint64_t trace_digest(const obs::TraceSink& sink) {
  util::ByteWriter w;
  for (const obs::TraceEvent& e : sink.events()) {
    w.u64(e.t);
    w.u32(e.server);
    w.u32(e.site);
    w.u32(e.rank);
    w.u8(static_cast<std::uint8_t>(e.cause));
    w.u32(static_cast<std::uint32_t>(e.served_by));
    w.u8(e.measured ? 1 : 0);
    w.f64(e.hops);
    w.f64(e.latency_ms);
  }
  return util::fnv1a(w.buffer().data(), w.buffer().size());
}

/// Runs `cfg` with a pre-set stop flag and a `at`-request cadence, so the
/// engine checkpoints at its first probe and stops; returns the FNV-1a of
/// the checkpoint payload.
std::uint64_t checkpoint_digest(const TestSystem& t,
                                const placement::PlacementResult& placement,
                                SimulationConfig cfg, std::uint64_t at) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("hybridcdn_golden_" + std::to_string(::getpid()) + ".ckpt");
  std::atomic<bool> stop{true};
  cfg.checkpoint_path = path.string();
  cfg.checkpoint_every_requests = at;
  cfg.stop = &stop;
  EXPECT_THROW(simulate(*t.system, placement, cfg), recover::Interrupted);
  const recover::Checkpoint ckpt = recover::read_file(path.string());
  std::filesystem::remove(path);
  return util::fnv1a(ckpt.payload.data(), ckpt.payload.size());
}

TEST_F(SimGoldenTest, SequentialHealthyRuns) {
  auto lru = config();
  lru.policy = cache::PolicyKind::kLru;
  lru.staleness = StalenessMode::kRefresh;
  EXPECT_DIGEST(run(lru), 0x9ac66404b1344cdfull);

  auto clock = config();
  clock.policy = cache::PolicyKind::kClock;
  clock.staleness = StalenessMode::kUncacheable;
  EXPECT_DIGEST(run(clock), 0x1bc7f44db747242full);
}

TEST_F(SimGoldenTest, MetricsHistogramsAndTraceSink) {
  obs::Registry registry;
  obs::TraceSink sink(0.05, 7);
  auto cfg = config();
  cfg.metrics = &registry;
  cfg.metrics_windows = 16;
  cfg.per_server_metrics = true;
  cfg.trace_sink = &sink;
  cfg.slo_ms = 10.0;
  EXPECT_DIGEST(run(cfg), 0xa215c1d3bc18b74eull);
  EXPECT_DIGEST(registry_digest(registry), 0x335705d021c20915ull);
  EXPECT_EQ(sink.recorded(), 4043u);
  EXPECT_DIGEST(trace_digest(sink), 0x72ea35a65caca289ull);
}

TEST_F(SimGoldenTest, FaultSchedule) {
  const auto faults = schedule();
  obs::Registry registry;
  obs::TraceSink sink(0.05, 9);
  auto cfg = config();
  cfg.faults = &faults;
  cfg.slo_ms = 30.0;
  cfg.metrics = &registry;
  cfg.metrics_windows = 16;
  cfg.trace_sink = &sink;
  EXPECT_DIGEST(run(cfg), 0x5aa48a3b47751032ull);
  EXPECT_DIGEST(registry_digest(registry), 0x1f25294dc0f8d6f4ull);
  EXPECT_EQ(sink.recorded(), 3936u);
  EXPECT_DIGEST(trace_digest(sink), 0xb325061718511f8dull);
}

TEST_F(SimGoldenTest, ParallelEngine) {
  auto cfg = config();
  cfg.threads = 2;
  cfg.shards = 4;
  EXPECT_DIGEST(run(cfg), 0x2844eeb216e1948full);

  obs::Registry registry;
  cfg.metrics = &registry;
  cfg.metrics_windows = 16;
  cfg.slo_ms = 10.0;
  EXPECT_DIGEST(run(cfg), 0x4a67d4d9ec2797f9ull);
  EXPECT_DIGEST(registry_digest(registry), 0x40e3573799b460b3ull);
}

TEST_F(SimGoldenTest, SequentialFaultCheckpointPayload) {
  const auto faults = schedule();
  obs::Registry registry;
  auto cfg = config();
  cfg.faults = &faults;
  cfg.metrics = &registry;
  cfg.metrics_windows = 16;
  EXPECT_DIGEST(checkpoint_digest(t_, *placement_, cfg, 45'000),
                0xea02e5e6224c1fabull);
}

TEST_F(SimGoldenTest, ParallelCheckpointPayload) {
  obs::Registry registry;
  auto cfg = config();
  // A short warm-up puts the first stop point (4096 requests per shard)
  // inside the measured window, so the payload carries tallies and windows.
  cfg.warmup_fraction = 0.1;
  cfg.threads = 2;
  cfg.shards = 4;
  cfg.metrics = &registry;
  cfg.metrics_windows = 16;
  EXPECT_DIGEST(checkpoint_digest(t_, *placement_, cfg, 20'000),
                0xbc64e7d942a50bcdull);
}

}  // namespace
