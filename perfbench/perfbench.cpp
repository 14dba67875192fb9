// perfbench — the repository benchmark program (see README.md here).
//
// One run executes one workload end to end — scenario, placement, flow
// pricing, sequential and parallel event simulation and, on redirect-mixed,
// the live redirectd service under open-loop load — checks the outputs and
// prints one JSON result line.  The repetitions of each stage are
// interleaved in cycles that repeat for --seconds.  With --trace 0 the line
// holds the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a separate traced run (one cycle), whose spans are written as
// Chrome-trace JSON.  Refuses to run from anything but a Release build.
//
// Usage:
//   perfbench --workload <sim-cache|plan-outage|redirect-mixed> --seed <n>
//             --seconds <s> --trace <0|1> --redirectd <path> --out <dir>
//             [--scenario-seed <n>]

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "redirect_client.h"
#include "src/cache/cache_factory.h"
#include "src/core/scenario.h"
#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/run_manifest.h"
#include "src/obs/span.h"
#include "src/placement/fixed_split.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/model_support.h"
#include "src/placement/placement_io.h"
#include "src/redirectd/protocol.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/quantile_sketch.h"
#include "src/util/rng.h"
#include "src/workload/request_stream.h"

namespace {

using namespace cdn;
using perfbench::median;
using perfbench::now_ns;

// ---------------------------------------------------------------- helpers

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Output checks: every failed check counts as one failed operation.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "CHECK FAILED: " << what << '\n';
    }
  }
  /// Operations that are not checks (simulated requests, redirects).
  void count(std::uint64_t ops, std::uint64_t bad) {
    attempted += ops;
    failed += bad;
  }
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// ---------------------------------------------------------------- /proc

struct ProcSample {
  double utime_s = 0.0;
  double stime_s = 0.0;
  std::uint64_t syscr = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t vm_hwm_kb = 0;
};

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  {
    std::ifstream in(base + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime is field 14.
    const auto close = text.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(text.substr(close + 2));
      std::vector<std::string> f;
      std::string tok;
      while (rest >> tok) f.push_back(tok);
      const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
      if (f.size() > 13) {
        s.utime_s = std::stod(f[11]) / tick;
        s.stime_s = std::stod(f[12]) / tick;
      }
    }
  }
  {
    std::ifstream in(base + "/io");
    std::string key;
    std::uint64_t value = 0;
    while (in >> key >> value) {
      if (key == "syscr:") s.syscr = value;
    }
  }
  {
    std::ifstream in(base + "/status");
    std::string line;
    while (std::getline(in, line)) {
      const auto value = [&] {
        return std::strtoull(line.c_str() + line.find(':') + 1, nullptr, 10);
      };
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
          line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        s.ctx_switches += value();
      } else if (line.rfind("VmHWM:", 0) == 0) {
        s.vm_hwm_kb = value();
      }
    }
  }
  return s;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------- daemon

/// One redirectd child process: started, waited for LISTENING/CONTROL,
/// stopped with SIGTERM.  Killed by the kernel if this process dies.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path) {
    int out[2] = {-1, -1};
    if (pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    const std::uint64_t t0 = now_ns();
    pid_ = fork();
    if (pid_ < 0) {
      close(out[0]);
      close(out[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], STDOUT_FILENO);
      FILE* log = std::fopen(log_path.c_str(), "w");
      if (log != nullptr) dup2(fileno(log), STDERR_FILENO);
      close(out[0]);
      close(out[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(out[1]);
    FILE* in = fdopen(out[0], "r");
    char line[256];
    while (std::fgets(line, sizeof line, in) != nullptr) {
      unsigned port = 0;
      if (std::sscanf(line, "LISTENING %u", &port) == 1) {
        port_ = static_cast<std::uint16_t>(port);
        startup_s_ = seconds_since(t0);
      } else if (std::sscanf(line, "CONTROL %u", &port) == 1) {
        control_port_ = static_cast<std::uint16_t>(port);
        break;
      }
    }
    std::fclose(in);
    if (port_ == 0 || control_port_ == 0) {
      stop();
      throw std::runtime_error("redirectd did not start; see " + log_path);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  std::uint16_t control_port() const { return control_port_; }
  pid_t pid() const { return pid_; }
  double startup_s() const { return startup_s_; }

  /// SIGTERM, then wait; returns true when the daemon exited with 0.
  bool stop() {
    if (pid_ <= 0) return exit_ok_;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 500; ++i) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        exit_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
        return exit_ok_;
      }
      usleep(10'000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
    exit_ok_ = false;
    return false;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t control_port_ = 0;
  double startup_s_ = 0.0;
  bool exit_ok_ = false;
};

/// The `redirect/answer_latency` timer of a redirectd --metrics-out file:
/// mean microseconds per answer (0 when absent).
double answer_latency_us(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto at = text.find("\"redirect/answer_latency\"");
  if (at == std::string::npos) return 0.0;
  const auto field = [&](const std::string& key) {
    const auto k = text.find("\"" + key + "\"", at);
    if (k == std::string::npos) return 0.0;
    return std::strtod(text.c_str() + text.find(':', k) + 1, nullptr);
  };
  const double count = field("count");
  return count > 0 ? field("total_seconds") / count * 1e6 : 0.0;
}

// ---------------------------------------------------------------- workloads

struct RedirectShape {
  bool enabled = false;
  double low_rate = 10'000;   // redirects/s
  double high_rate = 25'000;  // redirects/s, with placement swaps
  double round_low_s = 0.25;
  double round_high_s = 0.5;
  double reload_every_s = 0.1;
  double warmup_s = 0.5;
  double ladder_start = 30'000;
  double ladder_step = 1.3;
  double ladder_max = 1e6;
  int bisections = 2;
  double rung_s = 0.5;
  double p50_limit_us = 1000.0;
  /// A rung whose backlog, when its last request falls due, exceeds this
  /// many seconds of offered load is falling behind (2% overload over a
  /// 0.5 s rung).
  double backlog_limit_s = 0.01;
};

struct WorkloadSpec {
  std::string name;
  std::size_t servers = 50;
  double storage = 0.05;
  double lambda = 0.0;
  sim::StalenessMode staleness = sim::StalenessMode::kRefresh;
  bool hybrid = true;  // else pure caching
  // Repetitions of each stage in one cycle of the measured loop; a cycle
  // also holds one sequential run and, on redirect-mixed, one daemon start
  // and one redirect round.
  int setup_reps = 2;
  int plan_reps = 1;
  std::uint64_t seq_requests = 0;
  bool faults = false;
  double mtbf = 200'000.0;
  double mttr = 20'000.0;
  std::uint64_t par_requests = 0;
  int par_reps = 1;
  RedirectShape redirect;
};

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "sim-cache") {
    w.storage = 0.20;
    w.lambda = 0.1;
    w.staleness = sim::StalenessMode::kUncacheable;
    w.hybrid = false;
    w.setup_reps = 3;
    w.plan_reps = 2;
    w.seq_requests = 10'000'000;
    w.par_requests = 10'000'000;
  } else if (name == "plan-outage") {
    w.servers = 150;
    w.setup_reps = 5;
    w.seq_requests = 5'000'000;
    w.faults = true;
    w.par_requests = 2'000'000;
    w.par_reps = 2;
  } else if (name == "redirect-mixed") {
    w.seq_requests = 2'000'000;
    w.par_requests = 2'000'000;
    w.redirect.enabled = true;
    w.redirect.round_low_s = 0.5;
    w.redirect.round_high_s = 0.5;
    w.redirect.rung_s = 0.75;
    w.redirect.bisections = 3;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// Scenario (topology, catalogue, demand) seed of every workload unless
/// --scenario-seed overrides it; --seed varies the traffic on top of it.
constexpr std::uint64_t kPaperScenarioSeed = 2005;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::optional<std::uint64_t> scenario_seed;
  double seconds = 40.0;  // length of the measured loop
  bool trace = false;
  std::string redirectd;
  std::string out = ".";
};

// ---------------------------------------------------------------- stages

struct Context {
  Options opt;
  WorkloadSpec spec;
  core::ScenarioConfig scenario_config;
  std::unique_ptr<core::Scenario> scenario;
  std::optional<placement::PlacementResult> placement;
  fault::FaultSchedule faults;  // empty unless spec.faults
  Checks checks;
  Metrics out;
  // Samples of the interleaved repetitions.
  std::vector<double> setup_s, plan_s, seq_rate, par_rate;
  std::optional<double> cost_hops;
  std::uint64_t plan_digest = 0;
  std::optional<std::uint64_t> seq_digest, par_digest;
  sim::SimulationReport seq_report;
  // Traced run only.
  obs::SpanTracer* tracer = nullptr;
  std::uint32_t step_id = 0;
  std::map<std::string, double> layer;  // per-layer figures
};

/// A span around one workload step (no-op when untraced).
class Step {
 public:
  Step(Context& ctx, const char* name)
      : span_(ctx.tracer, ctx.tracer ? ctx.tracer->intern(name) : name,
              "perfbench") {
    span_.arg("step_id", static_cast<double>(++ctx.step_id));
  }

 private:
  obs::ScopedSpan span_;
};

const sys::CdnSystem& sys_of(const Context& ctx) {
  return ctx.scenario->system();
}

void stage_setup(Context& ctx) {
  Step step(ctx, "step/setup");
  core::ScenarioConfig cfg;
  cfg.server_count = ctx.spec.servers;
  cfg.storage_fraction = ctx.spec.storage;
  cfg.uncacheable_fraction = ctx.spec.lambda;
  cfg.seed = ctx.opt.scenario_seed.value_or(kPaperScenarioSeed);
  ctx.scenario_config = cfg;
  const std::uint64_t t0 = now_ns();
  ctx.scenario = std::make_unique<core::Scenario>(cfg);
  ctx.setup_s.push_back(seconds_since(t0));
  if (ctx.spec.faults) {
    fault::RandomFaultParams params;
    params.mtbf_requests = ctx.spec.mtbf;
    params.mttr_requests = ctx.spec.mttr;
    params.seed = mix_seed(ctx.opt.seed, 2);
    ctx.faults = fault::FaultSchedule::random(
        sys_of(ctx).server_count(), sys_of(ctx).site_count(),
        ctx.spec.seq_requests, params);
  }
}

/// One more scenario construction, timed and thrown away.
void setup_rep(Context& ctx) {
  Step step(ctx, "step/setup");
  const std::uint64_t t0 = now_ns();
  const core::Scenario scenario(ctx.scenario_config);
  ctx.setup_s.push_back(seconds_since(t0));
}

double flow_cost_hops(const Context& ctx,
                      const placement::PlacementResult& result) {
  sim::SimulationConfig cfg;
  cfg.engine = sim::SimEngine::kFlow;
  cfg.staleness = ctx.spec.staleness;
  return sim::simulate(sys_of(ctx), result, cfg).mean_cost_hops;
}

/// One placement: the hybrid greedy (exact model tier) or pure caching.
/// The first call keeps its result as the workload's placement; later ones
/// must reproduce it.
void plan_rep(Context& ctx) {
  Step step(ctx, "step/plan");
  obs::Registry registry;
  const bool traced = ctx.tracer != nullptr;
  const auto& system = sys_of(ctx);
  const std::uint64_t t0 = now_ns();
  auto result = [&] {
    if (!ctx.spec.hybrid) return placement::pure_caching(system);
    placement::HybridGreedyOptions options;
    options.metrics = traced ? &registry : nullptr;
    options.spans = ctx.tracer;
    return placement::hybrid_greedy(system, options);
  }();
  ctx.plan_s.push_back(seconds_since(t0));

  const auto& p = result.placement;
  bool within = true;
  for (sys::ServerIndex i = 0; i < p.server_count(); ++i) {
    within = within && p.used_bytes(i) <= p.storage_bytes(i) &&
             p.storage_bytes(i) == system.server_storage(i);
  }
  ctx.checks.expect(within, "placement storage exceeds a server budget");
  const double cost = flow_cost_hops(ctx, result);
  const std::uint64_t digest = placement::placement_digest(p);
  if (ctx.cost_hops) {
    ctx.checks.expect(cost == *ctx.cost_hops && digest == ctx.plan_digest,
                      "plan.cost_hops or placement differs across repetitions");
    return;
  }
  ctx.cost_hops = cost;
  ctx.plan_digest = digest;
  if (traced) {
    const auto* evaluated =
        registry.find_counter("placement/hybrid/candidates_evaluated");
    const double evaluations =
        evaluated ? static_cast<double>(evaluated->value()) : 0.0;
    const double iterations = static_cast<double>(result.replicas_created);
    ctx.layer["placement.iterations"] = iterations;
    ctx.layer["placement.evaluations"] = evaluations;
    ctx.layer["placement.commit_ratio"] =
        evaluations > 0 ? iterations / evaluations : 0.0;
  }
  std::cerr << "plan: " << result.replicas_created << " replicas, cost "
            << cost << " hops/req, digest " << hex64(digest) << '\n';
  ctx.placement.emplace(std::move(result));
}

sim::SimulationConfig sim_config(const Context& ctx, std::uint64_t requests) {
  sim::SimulationConfig cfg;
  cfg.total_requests = requests;
  cfg.warmup_fraction = 0.3;
  cfg.policy = cache::PolicyKind::kLru;
  cfg.staleness = ctx.spec.staleness;
  cfg.seed = mix_seed(ctx.opt.seed, 1);
  return cfg;
}

sim::SimulationConfig seq_config(const Context& ctx) {
  auto cfg = sim_config(ctx, ctx.spec.seq_requests);
  if (ctx.spec.faults) cfg.faults = &ctx.faults;
  return cfg;
}

/// Worker threads of the parallel engine: half the cores, at most four.
/// On shared virtual machines the host takes up to half the vCPUs away for
/// minutes at a time; a shard on a vCPU that is gone stalls the merge
/// barrier, and with spare cores the kernel can move it instead.
std::size_t sim_threads() {
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw / 2, 4);
}

sim::SimulationConfig par_config(const Context& ctx) {
  auto cfg = sim_config(ctx, ctx.spec.par_requests);
  cfg.threads = sim_threads();
  cfg.shards = 8;  // pinned: the report is a function of (seed, shards)
  return cfg;
}

void check_conservation(Context& ctx, const sim::SimulationReport& r,
                        std::uint64_t requests, const char* engine) {
  // The parallel engine floors each shard's warm-up separately, so it may
  // measure up to one request per shard more than the sequential engine.
  const auto warmup =
      static_cast<std::uint64_t>(0.3 * static_cast<double>(requests));
  const std::uint64_t slack = r.shards_used > 1 ? r.shards_used : 0;
  const bool ok =
      r.total_requests == requests &&
      r.measured_requests >= requests - warmup &&
      r.measured_requests <= requests - warmup + slack &&
      r.latency_cdf.count() + r.failed_requests == r.measured_requests &&
      r.cache_totals.accesses() <= r.measured_requests &&
      r.failed_requests <= r.measured_requests &&
      std::fabs(r.availability -
                (1.0 - static_cast<double>(r.failed_requests) /
                           static_cast<double>(r.measured_requests))) < 1e-12;
  ctx.checks.expect(ok, std::string(engine) +
                            " simulation does not conserve requests");
  ctx.checks.count(r.measured_requests, 0);
}

struct SimRun {
  sim::SimulationReport report;
  double wall_s = 0.0;
};

SimRun run_sim(const Context& ctx, const sim::SimulationConfig& cfg) {
  const std::uint64_t t0 = now_ns();
  SimRun run{sim::simulate(sys_of(ctx), *ctx.placement, cfg), 0.0};
  run.wall_s = seconds_since(t0);
  return run;
}

/// Checks that `digest` equals the first one seen in `first`.
void expect_same_digest(Context& ctx, std::optional<std::uint64_t>& first,
                        std::uint64_t digest, const char* what) {
  if (first) {
    ctx.checks.expect(digest == *first,
                      std::string(what) + " report_digest differs across "
                                          "repetitions");
  } else {
    first = digest;
  }
}

void seq_rep(Context& ctx) {
  Step step(ctx, "step/sim_sequential");
  const auto cfg = seq_config(ctx);
  SimRun run = run_sim(ctx, cfg);
  ctx.seq_rate.push_back(static_cast<double>(cfg.total_requests) / run.wall_s);
  check_conservation(ctx, run.report, cfg.total_requests, "sequential");
  expect_same_digest(ctx, ctx.seq_digest, sim::report_digest(run.report),
                     "sequential");
  ctx.seq_report = std::move(run.report);
}

void par_rep(Context& ctx) {
  Step step(ctx, "step/sim_parallel");
  const auto cfg = par_config(ctx);
  const SimRun run = run_sim(ctx, cfg);
  ctx.par_rate.push_back(static_cast<double>(cfg.total_requests) / run.wall_s);
  check_conservation(ctx, run.report, cfg.total_requests, "parallel");
  ctx.checks.expect(run.report.shards_used == cfg.shards,
                    "parallel engine did not run the pinned shards");
  expect_same_digest(ctx, ctx.par_digest, sim::report_digest(run.report),
                     "parallel");
}

/// Traced run only: what the engine's own spans cost, and how well the
/// parallel engine scales against the sequential one on the same work.
void stage_engine_tracing(Context& ctx) {
  Step step(ctx, "step/sim_traced");
  auto cfg = seq_config(ctx);
  const SimRun untraced = run_sim(ctx, cfg);
  cfg.spans = ctx.tracer;
  const SimRun traced = run_sim(ctx, cfg);
  ctx.checks.expect(sim::report_digest(traced.report) == *ctx.seq_digest &&
                        sim::report_digest(untraced.report) == *ctx.seq_digest,
                    "a span tracer changed the sequential report");
  ctx.layer["obs.trace_overhead"] =
      (traced.wall_s - untraced.wall_s) / untraced.wall_s;
  ctx.layer["sim.seq_ns_per_req"] =
      untraced.wall_s * 1e9 / static_cast<double>(cfg.total_requests);

  auto healthy = par_config(ctx);
  healthy.threads = 1;
  const SimRun seq = run_sim(ctx, healthy);
  const double par_rate = median(ctx.par_rate);
  ctx.layer["sim.par_efficiency"] =
      par_rate * seq.wall_s / static_cast<double>(healthy.total_requests) /
      static_cast<double>(sim_threads());
}

// ------------------------------------------------- per-layer replay (traced)

/// Times each per-request layer of the event simulator over the workload's
/// own request stream, chunk by chunk, with one span per layer per chunk.
void stage_layers(Context& ctx) {
  Step step(ctx, "step/layers");
  const auto& system = sys_of(ctx);
  const auto& catalog = system.catalog();
  const auto& result = *ctx.placement;
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const std::uint64_t total = ctx.spec.seq_requests;
  const auto warmup = static_cast<std::uint64_t>(0.3 * static_cast<double>(total));
  obs::SpanTracer* tr = ctx.tracer;
  const char* sp_batch = tr->intern("layer/workload.next_batch");
  const char* sp_cache = tr->intern("layer/cache.access");
  const char* sp_near = tr->intern("layer/cdn.nearest");
  const char* sp_live = tr->intern("layer/cdn.nearest_live");
  const char* sp_fault = tr->intern("layer/fault.step");
  const char* sp_lat = tr->intern("layer/util.latency_add");

  workload::RequestStream stream(catalog, system.demand(),
                                 mix_seed(ctx.opt.seed, 1));
  util::Rng lambda_rng(mix_seed(ctx.opt.seed, 3));
  std::vector<std::unique_ptr<cache::CachePolicy>> caches;
  for (std::size_t i = 0; i < n; ++i) {
    caches.push_back(cache::make_cache(
        cache::PolicyKind::kLru,
        result.cache_bytes(static_cast<sys::ServerIndex>(i))));
  }
  fault::FaultTimeline timeline(ctx.faults, n, m);
  std::vector<std::vector<sys::ServerIndex>> holders(m);
  for (std::size_t j = 0; j < m; ++j) {
    holders[j] = result.placement.replicators(static_cast<sys::SiteIndex>(j));
  }
  const sim::LatencyModel latency_model;
  util::LatencyDistribution dist;
  dist.reserve(total - warmup);
  const bool uncacheable =
      ctx.spec.staleness == sim::StalenessMode::kUncacheable;

  constexpr std::size_t kChunk = 4096;
  workload::RequestBatch batch;
  std::vector<std::uint8_t> redirected(kChunk);
  std::vector<double> hops(kChunk);
  std::vector<std::uint8_t> up(kChunk);
  const auto span_ns = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    tr->complete(name, "layer", a, b, "step_id",
                 static_cast<double>(ctx.step_id));
    return b - a;
  };
  std::uint64_t ns_batch = 0, ns_cache = 0, ns_near = 0, ns_live = 0,
                ns_fault = 0, ns_lat = 0, lat_adds = 0;
  std::uint64_t eligible = 0, hits = 0;
  for (std::uint64_t t = 0; t < total;) {
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, total - t));
    std::uint64_t a = tr->now_ns();
    stream.next_batch(batch, count);
    std::uint64_t b = tr->now_ns();
    ns_batch += span_ns(sp_batch, a, b);

    if (ctx.spec.faults) {
      // Health only changes at request-clock transitions; the stepper runs
      // once per request, as in the per-request engine loop.
      a = tr->now_ns();
      for (std::size_t i = 0; i < count; ++i) {
        if (timeline.advance(t + i)) {
          for (const std::uint32_t s : timeline.just_recovered()) {
            caches[s]->clear();
          }
        }
        up[i] = timeline.server_up(batch.server[i]) ? 1 : 0;
      }
      b = tr->now_ns();
      ns_fault += span_ns(sp_fault, a, b);
    }

    a = tr->now_ns();
    for (std::size_t i = 0; i < count; ++i) {
      const auto server = static_cast<sys::ServerIndex>(batch.server[i]);
      const auto site = static_cast<sys::SiteIndex>(batch.site[i]);
      redirected[i] = 0;
      if (result.placement.is_replicated(server, site)) continue;
      const bool flagged =
          lambda_rng.bernoulli(catalog.uncacheable_fraction(batch.site[i]));
      const cache::ObjectKey key = catalog.object_id(batch.site[i], batch.rank[i]);
      const std::uint64_t bytes = catalog.object_bytes(batch.site[i], batch.rank[i]);
      cache::CachePolicy& cache = *caches[server];
      if (flagged && uncacheable) {
        redirected[i] = 1;
      } else if (flagged) {
        cache.access(key, bytes);
        redirected[i] = 1;
      } else {
        ++eligible;
        if (cache.access(key, bytes)) {
          ++hits;
        } else {
          redirected[i] = 1;
        }
      }
    }
    b = tr->now_ns();
    ns_cache += span_ns(sp_cache, a, b);

    a = tr->now_ns();
    for (std::size_t i = 0; i < count; ++i) {
      hops[i] = redirected[i]
                    ? result.nearest.cost(
                          static_cast<sys::ServerIndex>(batch.server[i]),
                          static_cast<sys::SiteIndex>(batch.site[i]))
                    : 0.0;
    }
    b = tr->now_ns();
    ns_near += span_ns(sp_near, a, b);

    if (ctx.spec.faults) {
      a = tr->now_ns();
      for (std::size_t i = 0; i < count; ++i) {
        const auto server = static_cast<sys::ServerIndex>(batch.server[i]);
        const auto site = static_cast<sys::SiteIndex>(batch.site[i]);
        if (!up[i] || redirected[i]) {
          const sys::NearestCopy& pre = result.nearest.nearest(server, site);
          const bool pre_live = pre.at_primary || timeline.server_up(pre.server);
          if (!up[i] || !pre_live) {
            const auto live = result.nearest.nearest_live(
                server, site, holders[site], timeline.server_up_mask(), true);
            hops[i] = live ? live->cost : 0.0;
          }
        }
      }
      b = tr->now_ns();
      ns_live += span_ns(sp_live, a, b);
    }

    a = tr->now_ns();
    for (std::size_t i = 0; i < count; ++i) {
      if (t + i >= warmup) {
        dist.add(latency_model.latency_ms(hops[i]));
        ++lat_adds;
      }
    }
    b = tr->now_ns();
    ns_lat += span_ns(sp_lat, a, b);
    t += count;
  }
  std::uint64_t evictions = 0;
  for (const auto& c : caches) evictions += c->stats().evictions();
  const double req = static_cast<double>(total);
  ctx.layer["workload.batch_ns_per_req"] = static_cast<double>(ns_batch) / req;
  ctx.layer["cache.access_ns_per_req"] = static_cast<double>(ns_cache) / req;
  ctx.layer["cache.hit_ratio"] =
      eligible > 0 ? static_cast<double>(hits) / static_cast<double>(eligible)
                   : 0.0;
  ctx.layer["cache.evictions_per_req"] = static_cast<double>(evictions) / req;
  ctx.layer["cdn.nearest_ns_per_req"] = static_cast<double>(ns_near) / req;
  ctx.layer["cdn.nearest_live_ns_per_req"] = static_cast<double>(ns_live) / req;
  ctx.layer["fault.step_ns_per_req"] = static_cast<double>(ns_fault) / req;
  ctx.layer["util.latency_add_ns"] =
      lat_adds > 0 ? static_cast<double>(ns_lat) / static_cast<double>(lat_adds)
                   : 0.0;
  ctx.layer["util.latency_add_ns_per_req"] = static_cast<double>(ns_lat) / req;
  ctx.checks.expect(dist.count() == total - warmup,
                    "layer replay lost latency samples");
}

/// Placement-layer micro timings at the initial (empty) placement.
void stage_placement_layers(Context& ctx) {
  Step step(ctx, "step/placement_layers");
  const auto& system = sys_of(ctx);
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const placement::ModelContext model(system);
  auto states = model.make_states();
  const auto hit = placement::modeled_hit_matrix(states);
  const auto flow = placement::miss_flow_matrix(system, hit);
  const sys::ReplicaPlacement empty(system.server_storage(),
                                    system.site_bytes());
  const sys::NearestReplicaIndex nearest(system.distances(), empty);
  double sink = 0.0;
  {
    obs::ScopedSpan span(ctx.tracer, ctx.tracer->intern("layer/model.what_if"),
                         "layer");
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        sink += states[i]
                    .what_if_replicate(static_cast<std::uint32_t>(j))
                    .characteristic_time();
      }
    }
    ctx.layer["model.whatif_ns"] =
        static_cast<double>(now_ns() - t0) / static_cast<double>(n * m);
  }
  {
    obs::ScopedSpan span(ctx.tracer,
                         ctx.tracer->intern("layer/placement.candidate"),
                         "layer");
    std::uint64_t calls = 0;
    const std::uint64_t t0 = now_ns();
    for (sys::ServerIndex i = 0; i < n; ++i) {
      for (sys::SiteIndex j = 0; j < m; ++j) {
        if (!empty.can_add(i, j)) continue;
        sink += placement::hybrid_candidate_benefit(
            system, empty, nearest, states[i], hit, flow.data(), i, j);
        ++calls;
      }
    }
    ctx.layer["placement.candidate_ns"] =
        calls > 0 ? static_cast<double>(now_ns() - t0) / static_cast<double>(calls)
                  : 0.0;
  }
  ctx.checks.expect(std::isfinite(sink), "placement layer produced NaN");
}

/// Self time of every span name, from the tracer's events: a span's
/// duration minus what its child spans on the same thread cover.
std::map<std::string, double> span_self_seconds(const obs::SpanTracer& tracer,
                                                std::map<std::string, double>* total) {
  auto events = tracer.events();
  std::erase_if(events, [](const obs::SpanTracer::Event& e) {
    return e.phase != obs::SpanTracer::Phase::kComplete;
  });
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    return a.dur_ns > b.dur_ns;
  });
  std::map<std::string, double> self;
  std::vector<std::pair<std::size_t, std::uint64_t>> stack;  // idx, child ns
  std::vector<std::uint64_t> child(events.size(), 0);
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto& e = events[k];
    while (!stack.empty()) {
      const auto& top = events[stack.back().first];
      if (top.tid == e.tid && e.ts_ns < top.ts_ns + top.dur_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back().first] += e.dur_ns;
    stack.push_back({k, 0});
  }
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto& e = events[k];
    const double own =
        static_cast<double>(e.dur_ns - std::min(e.dur_ns, child[k])) * 1e-9;
    self[e.name] += own;
    if (total != nullptr) (*total)[e.name] += static_cast<double>(e.dur_ns) * 1e-9;
  }
  return self;
}

// ---------------------------------------------------------------- redirector

perfbench::AnswerTable answer_table(const placement::PlacementResult& result) {
  const std::size_t n = result.placement.server_count();
  const std::size_t m = result.placement.site_count();
  perfbench::AnswerTable table;
  table.sites = m;
  table.cells.resize(n * m);
  const std::vector<std::uint8_t> all_up(n, 1);
  for (std::size_t j = 0; j < m; ++j) {
    const auto holders =
        result.placement.replicators(static_cast<sys::SiteIndex>(j));
    for (std::size_t i = 0; i < n; ++i) {
      const auto ranked = result.nearest.nearest_live_candidates(
          static_cast<sys::ServerIndex>(i), static_cast<sys::SiteIndex>(j),
          holders, all_up, true, 3);
      auto& cell = table.cells[i * m + j];
      cell.at_primary = ranked.front().at_primary;
      cell.server = ranked.front().server;
      cell.cost = ranked.front().cost;
    }
  }
  return table;
}

/// redirectd in model mode on the workload's scenario, driven by the
/// open-loop client: set-up, low/high rounds with placement swaps, and the
/// rate ladder.
class RedirectBench {
 public:
  explicit RedirectBench(Context& ctx);
  void start_rep();
  void round();
  void ladder();
  /// Stops the daemon and fills the end-to-end and layer figures.
  void finish();

 private:
  struct Rung {
    double rate = 0.0;
    double p50 = 0.0;
    bool pass = false;
  };
  void account(const perfbench::PhaseResult& p);
  void protocol_layers(const placement::PlacementResult& served,
                       const std::vector<perfbench::RedirectRequest>& requests);
  Rung try_rate(double rate);

  Context& ctx_;
  const RedirectShape& shape_;
  std::string served_file_, partner_file_, metrics_file_;
  perfbench::AnswerTable table_a_, table_b_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<perfbench::OpenLoopClient> client_;
  std::unique_ptr<perfbench::ControlClient> control_;
  std::vector<std::string> args_;  // daemon command line; --metrics-out last
  std::vector<double> starts_;
  double max_rate_ = 0.0;
  double best_pass_ = 0.0;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::uint64_t last_generation_ = 1;
  std::vector<std::string> reload_errors_;
  std::vector<double> low_p50s_, low_p99s_, high_p50s_, high_p99s_, reload_ms_;
  std::uint64_t low_requests_ = 0, low_ctx_switches_ = 0;
};

RedirectBench::RedirectBench(Context& ctx)
    : ctx_(ctx), shape_(ctx.spec.redirect) {
  Step step(ctx, "step/redirect_setup");
  const auto& system = sys_of(ctx);
  const std::string& dir = ctx.opt.out;
  served_file_ = dir + "/placement_served.txt";
  partner_file_ = dir + "/placement_partner.txt";
  metrics_file_ = dir + "/redirectd_metrics.json";

  // The served (hybrid) placement and the greedy-global one swapped in
  // during the high phases, saved and loaded back exactly as the daemon
  // parses them.
  const auto& served = *ctx.placement;
  placement::save_placement(served.placement, served_file_);
  placement::save_placement(placement::greedy_global(system).placement,
                            partner_file_);
  std::vector<double> parse_ms;
  std::optional<placement::PlacementResult> loaded;
  for (int r = 0; r < 3; ++r) {
    const std::uint64_t t0 = now_ns();
    loaded.emplace(placement::load_placement_result(served_file_, system));
    parse_ms.push_back(seconds_since(t0) * 1e3);
  }
  ctx.layer["redirectd.reload_parse_ms"] = median(parse_ms);
  ctx.checks.expect(placement::placement_digest(loaded->placement) ==
                        placement::placement_digest(served.placement),
                    "saved placement does not load back identical");
  table_a_ = answer_table(*loaded);
  table_b_ = answer_table(
      placement::load_placement_result(partner_file_, system));

  // Requests from the scenario's own demand stream.
  std::vector<perfbench::RedirectRequest> requests(std::size_t{1} << 20);
  {
    workload::RequestStream stream(system.catalog(), system.demand(),
                                   mix_seed(ctx.opt.seed, 4));
    for (auto& r : requests) {
      const auto q = stream.next();
      r = {q.server, q.site, q.rank};
    }
  }
  if (ctx.tracer != nullptr) protocol_layers(*loaded, requests);

  // Several starts; the last one serves.
  const auto& cfg = ctx.scenario_config;
  args_ = {
      "--servers", std::to_string(cfg.server_count),
      "--low", std::to_string(cfg.classes.at(0).site_count),
      "--medium", std::to_string(cfg.classes.at(1).site_count),
      "--high", std::to_string(cfg.classes.at(2).site_count),
      "--objects", std::to_string(cfg.surge.objects_per_site),
      "--storage", std::to_string(cfg.storage_fraction),
      "--seed", std::to_string(cfg.seed),
      "--placement", served_file_,
      "--port", "0", "--control-port", "0",
      "--metrics-out", metrics_file_};
  daemon_ = std::make_unique<Daemon>(ctx.opt.redirectd, args_,
                                     dir + "/redirectd.log");
  starts_.push_back(daemon_->startup_s());

  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  client_ = std::make_unique<perfbench::OpenLoopClient>(
      daemon_->port(), std::min<std::size_t>(3, hw - 1), std::move(requests));
  control_ = std::make_unique<perfbench::ControlClient>(daemon_->control_port());
  // First-touch paths of the daemon and the client.
  account(client_->run(shape_.low_rate, shape_.warmup_s, {&table_a_}));
}

/// One more daemon start beside the serving one, timed to LISTENING and
/// stopped.
void RedirectBench::start_rep() {
  Step step(ctx_, "step/redirect_start");
  auto args = args_;
  args.back() = ctx_.opt.out + "/redirectd_start_metrics.json";
  Daemon extra(ctx_.opt.redirectd, args, ctx_.opt.out + "/redirectd_start.log");
  starts_.push_back(extra.startup_s());
  ctx_.checks.expect(extra.stop(), "redirectd did not exit cleanly");
}

void RedirectBench::account(const perfbench::PhaseResult& p) {
  attempted_ += p.attempted;
  failed_ += p.failed;
  if (p.failed > 0) std::cerr << "redirect: " << p.first_error << '\n';
}

/// In-process timings of the protocol and decision functions the daemon
/// calls per request.
void RedirectBench::protocol_layers(
    const placement::PlacementResult& served,
    const std::vector<perfbench::RedirectRequest>& requests) {
  obs::ScopedSpan span(ctx_.tracer,
                       ctx_.tracer->intern("layer/redirectd.protocol"), "layer");
  constexpr std::size_t kCalls = 100'000;
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < kCalls; ++k) {
    redirectd::RedirectRequest q;
    q.client_server = requests[k].server;
    q.site = requests[k].site;
    q.object = requests[k].object;
    lines.push_back(redirectd::format_request(q));
  }
  const auto per_call = [&](std::uint64_t t0) {
    return static_cast<double>(now_ns() - t0) / static_cast<double>(kCalls);
  };
  std::uint64_t sink = 0;
  std::uint64_t t0 = now_ns();
  for (const auto& l : lines) sink += redirectd::parse_request(l).site;
  ctx_.layer["redirectd.parse_ns"] = per_call(t0);

  t0 = now_ns();
  for (std::size_t k = 0; k < kCalls; ++k) {
    const auto& e = table_a_.at(requests[k].server, requests[k].site);
    redirectd::RedirectAnswer answer;
    answer.kind = e.at_primary ? redirectd::AnswerKind::kOrigin
                               : redirectd::AnswerKind::kReplica;
    answer.server = e.server;
    answer.site = requests[k].site;
    answer.cost = e.cost;
    answer.winner_rank = 1;
    sink += redirectd::format_answer(answer).size();
  }
  ctx_.layer["redirectd.format_ns"] = per_call(t0);

  // The daemon's decision: top-3 live copies, everything up.
  const auto& system = sys_of(ctx_);
  const std::vector<std::uint8_t> all_up(system.server_count(), 1);
  std::vector<std::vector<sys::ServerIndex>> holders(system.site_count());
  for (std::size_t j = 0; j < holders.size(); ++j) {
    holders[j] = served.placement.replicators(static_cast<sys::SiteIndex>(j));
  }
  t0 = now_ns();
  for (std::size_t k = 0; k < kCalls; ++k) {
    sink += served.nearest
                .nearest_live_candidates(requests[k].server, requests[k].site,
                                         holders[requests[k].site], all_up,
                                         true, 3)
                .size();
  }
  ctx_.layer["cdn.candidates_ns"] = per_call(t0);
  ctx_.checks.expect(sink > 0, "protocol layer produced nothing");
}

/// One low sub-phase, then one high sub-phase during which the control
/// socket swaps the partner placement in and out on a fixed cadence.
/// Every answer must come from a placement that served between the
/// request's send and its reply.
void RedirectBench::round() {
  Step step(ctx_, "step/redirect_round");
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  const ProcSample before = sample_proc(daemon_->pid());
  const auto low = client_->run(shape_.low_rate, shape_.round_low_s, {&table_a_});
  const ProcSample after = sample_proc(daemon_->pid());
  account(low);
  append(low_p50s_, low.window_p50s_us);
  append(low_p99s_, low.window_p99s_us);
  low_requests_ += low.attempted;
  low_ctx_switches_ += after.ctx_switches - before.ctx_switches;

  std::vector<perfbench::ReloadEvent> reloads;
  std::jthread reloader([&](std::stop_token stop) {
    int target = 1;
    const auto period =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(shape_.reload_every_s));
    auto next = std::chrono::steady_clock::now() + period;
    const auto swap = [&] {
      perfbench::ReloadEvent ev;
      ev.table = target;
      ev.sent_ns = now_ns();
      const std::string reply = control_->call(
          "RELOAD placement " + (target == 1 ? partner_file_ : served_file_));
      ev.replied_ns = now_ns();
      reloads.push_back(ev);
      unsigned long long generation = 0;
      if (std::sscanf(reply.c_str(), "OK generation=%llu", &generation) != 1 ||
          generation <= last_generation_) {
        reload_errors_.push_back(reply);
      }
      last_generation_ = generation;
      target = 1 - target;
    };
    try {
      while (!stop.stop_requested()) {
        std::this_thread::sleep_until(next);
        next += period;
        if (stop.stop_requested()) break;
        swap();
      }
      if (target == 0) swap();  // end on the served placement
    } catch (const std::exception& e) {
      reload_errors_.push_back(e.what());
    }
  });
  auto high = client_->run(shape_.high_rate, shape_.round_high_s,
                           {&table_a_, &table_b_});
  reloader.request_stop();
  reloader.join();
  const std::uint64_t wrong = perfbench::check_generations(high, reloads);
  high.failed += wrong;
  if (wrong > 0) {
    high.first_error = std::to_string(wrong) +
                       " answers from a placement that was not serving";
  }
  account(high);
  append(high_p50s_, high.window_p50s_us);
  append(high_p99s_, high.window_p99s_us);
  for (const auto& ev : reloads) {
    reload_ms_.push_back(static_cast<double>(ev.replied_ns - ev.sent_ns) * 1e-6);
  }
  ctx_.layer["loadgen.lag_us.p99"] = high.lag_p99_us;
  ctx_.layer["loadgen.backlog_max"] = static_cast<double>(high.backlog_max);
  ctx_.layer["net.answers_per_recv"] =
      high.recv_calls > 0 ? static_cast<double>(high.answered) /
                                static_cast<double>(high.recv_calls)
                          : 0.0;
}

RedirectBench::Rung RedirectBench::try_rate(double rate) {
  const ProcSample before = sample_proc(daemon_->pid());
  const double cpu0 = process_cpu_s();
  const auto rung = client_->run(rate, shape_.rung_s, {&table_a_});
  const double gen_cpu = process_cpu_s() - cpu0;
  const ProcSample after = sample_proc(daemon_->pid());
  // Overload is not an error; wrong answers are.
  attempted_ += rung.wrong;
  failed_ += rung.wrong;
  if (!rung.first_error.empty() && rung.answered < rung.attempted) {
    throw std::runtime_error("ladder rung broke off: " + rung.first_error);
  }
  const double cpu = (after.utime_s + after.stime_s) -
                     (before.utime_s + before.stime_s);
  Rung r{rate, rung.window_p50_us, false};
  r.pass = rung.failed == 0 && rung.window_p50_us <= shape_.p50_limit_us &&
           static_cast<double>(rung.backlog_end) <=
               std::max(1.0, rate * shape_.backlog_limit_s);
  std::cerr << "  rung " << rate << "/s: p50 " << rung.window_p50_us
            << " us, p99 " << rung.window_p99_us << " us, backlog "
            << rung.backlog_end << ", daemon cpu " << cpu / rung.wall_s
            << ", generator cpu " << gen_cpu / rung.wall_s
            << (r.pass ? "" : " FAIL") << '\n';
  if (r.pass && rate >= best_pass_) {
    best_pass_ = rate;
    const auto requests = static_cast<double>(rung.attempted);
    ctx_.layer["redirectd.cpu_us_per_req"] = cpu * 1e6 / requests;
    ctx_.layer["redirectd.kernel_share"] =
        cpu > 0 ? (after.stime_s - before.stime_s) / cpu : 0.0;
    ctx_.layer["redirectd.reads_per_req"] =
        static_cast<double>(after.syscr - before.syscr) / requests;
    ctx_.layer["loadgen.cpu_share"] = gen_cpu / rung.wall_s;
  }
  return r;
}

/// The highest offered rate whose window-median p50 stays under the limit
/// without a growing backlog: coarse steps up to the first failing rate,
/// bisection of that bracket, then interpolation of log p50 between the
/// last passing and the first failing rate.  A failing rate is tried once
/// more, because the host shows multi-millisecond scheduling stalls that
/// have nothing to do with the offered load.
void RedirectBench::ladder() {
  Step step(ctx_, "step/redirect_ladder");
  const auto attempt = [&](double rate) {
    const Rung r = try_rate(rate);
    return r.pass ? r : try_rate(rate);
  };
  Rung lo, hi;
  for (double rate = shape_.ladder_start; rate <= shape_.ladder_max;
       rate *= shape_.ladder_step) {
    const Rung r = attempt(rate);
    if (!r.pass) {
      hi = r;
      break;
    }
    lo = r;
  }
  if (lo.pass && hi.rate > 0) {
    for (int b = 0; b < shape_.bisections; ++b) {
      const Rung r = attempt(std::sqrt(lo.rate * hi.rate));
      (r.pass ? lo : hi) = r;
    }
  }
  if (!lo.pass) {
    // Even the first rate missed the limit: extrapolate below the ladder
    // (a slow host is not a wrong answer).
    max_rate_ = shape_.ladder_start *
                std::clamp(shape_.p50_limit_us / std::max(1.0, hi.p50), 0.01, 1.0);
  } else if (hi.rate > 0 && std::isfinite(hi.p50) && hi.p50 > lo.p50 &&
             lo.p50 > 0) {
    const double f = (std::log(shape_.p50_limit_us) - std::log(lo.p50)) /
                     (std::log(hi.p50) - std::log(lo.p50));
    max_rate_ = lo.rate + std::clamp(f, 0.0, 1.0) * (hi.rate - lo.rate);
  } else {
    max_rate_ = lo.rate;
  }
}

void RedirectBench::finish() {
  const double daemon_rss_mb =
      static_cast<double>(sample_proc(daemon_->pid()).vm_hwm_kb) / 1024.0;
  client_.reset();
  control_.reset();
  ctx_.checks.expect(daemon_->stop(), "redirectd did not exit cleanly");
  ctx_.checks.expect(reload_ms_.size() >= 2 && reload_errors_.empty(),
                     "RELOAD did not reply OK with increasing generations" +
                         (reload_errors_.empty() ? std::string()
                                                 : ": " + reload_errors_.front()));
  ctx_.checks.count(attempted_, failed_);
  ctx_.layer["redirectd.answer_us"] = answer_latency_us(metrics_file_);
  ctx_.layer["redirect.p99_us.low"] = median(low_p99s_);
  ctx_.layer["redirect.p99_us.high"] = median(high_p99s_);
  ctx_.layer["redirectd.ctx_switches_per_req"] =
      static_cast<double>(low_ctx_switches_) /
      static_cast<double>(std::max<std::uint64_t>(1, low_requests_));
  ctx_.layer["redirectd.setup_s"] = median(starts_);
  ctx_.layer["redirectd.peak_rss_mb"] = daemon_rss_mb;
  ctx_.layer["redirect.p50_us.low"] = median(low_p50s_);
  ctx_.layer["redirect.p50_us.high"] = median(high_p50s_);
  ctx_.layer["redirect.max_rate"] = max_rate_;
  ctx_.layer["redirect.reload_ms"] = median(reload_ms_);
  std::cerr << "redirect: p50 low " << median(low_p50s_) << " us, high "
            << median(high_p50s_) << " us, max rate " << max_rate_
            << "/s, reload " << median(reload_ms_) << " ms over "
            << reload_ms_.size() << " swaps\n";
}

// ---------------------------------------------------------------- main

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units = {
      {"core.scenario_s", "s"},
      {"workload.batch_ns_per_req", "ns/req"},
      {"cache.access_ns_per_req", "ns/req"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions_per_req", "1/req"},
      {"cdn.nearest_ns_per_req", "ns/req"},
      {"cdn.nearest_live_ns_per_req", "ns/req"},
      {"cdn.candidates_ns", "ns"},
      {"fault.step_ns_per_req", "ns/req"},
      {"fault.transitions", "count"},
      {"util.latency_add_ns", "ns"},
      {"model.whatif_ns", "ns"},
      {"placement.candidate_ns", "ns"},
      {"placement.iterations", "count"},
      {"placement.evaluations", "count"},
      {"placement.commit_ratio", "ratio"},
      {"placement.initial_eval_s", "s"},
      {"placement.reevaluate_s", "s"},
      {"sim.seq_ns_per_req", "ns/req"},
      {"sim.unexplained_ns_per_req", "ns/req"},
      {"sim.par_efficiency", "ratio"},
      {"redirect.p50_us.low", "us"},
      {"redirect.p50_us.high", "us"},
      {"redirect.p99_us.low", "us"},
      {"redirect.p99_us.high", "us"},
      {"redirect.max_rate", "redirects/s"},
      {"redirect.reload_ms", "ms"},
      {"redirectd.setup_s", "s"},
      {"redirectd.peak_rss_mb", "MB"},
      {"redirectd.cpu_us_per_req", "us/req"},
      {"redirectd.kernel_share", "ratio"},
      {"redirectd.reads_per_req", "1/req"},
      {"redirectd.ctx_switches_per_req", "1/req"},
      {"redirectd.answer_us", "us"},
      {"redirectd.parse_ns", "ns"},
      {"redirectd.format_ns", "ns"},
      {"redirectd.reload_parse_ms", "ms"},
      {"net.answers_per_recv", "ratio"},
      {"loadgen.cpu_share", "ratio"},
      {"loadgen.lag_us.p99", "us"},
      {"loadgen.backlog_max", "count"},
      {"obs.trace_overhead", "ratio"},
  };
  return units;
}

/// Repeats a cycle of `count[k]` repetitions of each step, interleaved
/// evenly over the cycle, for at least `min_cycles` cycles and then until
/// another cycle of average length would end after `seconds`, so that every
/// figure samples the host at many moments of the run.  Freed memory goes
/// back to the system after each step, so that peak RSS measures the
/// largest step rather than how the allocator's per-thread arenas happened
/// to fill up across steps.  Returns the number of cycles run.
int run_cycles(const std::vector<std::pair<int, std::function<void()>>>& steps,
               double seconds, int min_cycles) {
  std::vector<std::pair<double, const std::function<void()>*>> order;
  for (const auto& [count, fn] : steps) {
    for (int i = 0; i < count; ++i) {
      order.push_back({(i + 0.5) / count, &fn});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::uint64_t t0 = now_ns();
  for (int cycles = 1;; ++cycles) {
    for (const auto& item : order) {
      (*item.second)();
      malloc_trim(0);
    }
    const double elapsed = seconds_since(t0);
    if (cycles >= min_cycles && elapsed * (cycles + 1) / cycles > seconds) {
      return cycles;
    }
  }
}

int run(const Options& opt) {
  const obs::RunManifest build = obs::make_run_manifest("perfbench");
  std::printf("build: type=%s flags=%s compiler=%s\n", build.build_type.c_str(),
              build.build_flags.c_str(), build.compiler.c_str());
  if (build.build_type != "Release") {
    std::cerr << "perfbench: refusing to report from a " << build.build_type
              << " build; only Release figures are comparable\n";
    return 3;
  }
  Context ctx;
  ctx.opt = opt;
  ctx.spec = workload_spec(opt.workload);
  std::unique_ptr<obs::SpanTracer> tracer;
  if (opt.trace) {
    tracer = std::make_unique<obs::SpanTracer>(std::size_t{1} << 18);
    ctx.tracer = tracer.get();
  }
  std::cerr << "workload " << opt.workload << ", seed " << opt.seed << '\n';

  stage_setup(ctx);
  plan_rep(ctx);
  if (opt.trace) stage_placement_layers(ctx);
  const auto& spec = ctx.spec;
  std::optional<RedirectBench> redirect;
  if (spec.redirect.enabled) redirect.emplace(ctx);
  // The traced run is one cycle without further placements: its figures
  // come from the traced stages below, not from medians.
  const int cycles = run_cycles(
      {{spec.setup_reps, [&] { setup_rep(ctx); }},
       {opt.trace ? 0 : spec.plan_reps, [&] { plan_rep(ctx); }},
       {1, [&] { seq_rep(ctx); }},
       {opt.trace ? 1 : spec.par_reps, [&] { par_rep(ctx); }},
       {redirect ? 1 : 0, [&] { redirect->start_rep(); }},
       {redirect ? 1 : 0, [&] { redirect->round(); }}},
      opt.trace ? 0.0 : opt.seconds, opt.trace ? 1 : 2);
  std::cerr << "measured " << cycles << " cycles: " << ctx.plan_s.size()
            << " placements, " << ctx.seq_rate.size() << " sequential and "
            << ctx.par_rate.size() << " parallel runs\n";
  ctx.layer["core.scenario_s"] = median(ctx.setup_s);
  if (redirect) {
    // The ladder only feeds layer figures, so only the traced run climbs it.
    if (opt.trace) redirect->ladder();
    redirect->finish();
  }
  if (opt.trace) {
    stage_engine_tracing(ctx);
    stage_layers(ctx);
  }
  std::cerr << "sequential: " << median(ctx.seq_rate) << " req/s, parallel "
            << median(ctx.par_rate) << " req/s on " << sim_threads()
            << " threads, mean " << ctx.seq_report.mean_latency_ms
            << " ms, availability " << ctx.seq_report.availability << '\n';

  auto& L = ctx.layer;
  L["fault.transitions"] = static_cast<double>(ctx.seq_report.fault_transitions);
  ctx.out["setup_s"] = {L["core.scenario_s"] + L["redirectd.setup_s"], "s"};
  ctx.out["plan_s"] = {median(ctx.plan_s), "s"};
  ctx.out["plan.cost_hops"] = {*ctx.cost_hops, "hops/req"};
  ctx.out["sim.req_per_s"] = {median(ctx.seq_rate), "req/s"};
  ctx.out["sim.par_req_per_s"] = {median(ctx.par_rate), "req/s"};
  ctx.out["sim.mean_ms"] = {ctx.seq_report.mean_latency_ms, "ms"};
  ctx.out["sim.availability"] = {ctx.seq_report.availability, "ratio"};
  ctx.out["peak_rss_mb"] = {self_peak_rss_mb() + L["redirectd.peak_rss_mb"],
                            "MB"};
  const double fail_frac =
      static_cast<double>(ctx.checks.failed) /
      static_cast<double>(std::max<std::uint64_t>(1, ctx.checks.attempted));
  ctx.out["ok_frac"] = {1.0 - fail_frac, "ratio"};

  Metrics result = ctx.out;
  if (opt.trace) {
    std::map<std::string, double> total;
    const auto self = span_self_seconds(*tracer, &total);
    const auto self_of = [&](const std::string& name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    L["placement.initial_eval_s"] = self_of("placement/hybrid/initial_eval");
    L["placement.reevaluate_s"] = self_of("placement/hybrid/heap/reevaluate");
    L["sim.unexplained_ns_per_req"] =
        L["sim.seq_ns_per_req"] -
        (L["workload.batch_ns_per_req"] + L["cache.access_ns_per_req"] +
         L["cdn.nearest_ns_per_req"] + L["cdn.nearest_live_ns_per_req"] +
         L["fault.step_ns_per_req"] + L["util.latency_add_ns_per_req"]);
    result.clear();
    for (const auto& [name, unit] : layer_units()) {
      result[name] = {L.count(name) ? L.at(name) : 0.0, unit};
    }
    std::cerr << "span self time, s (total):\n";
    for (const auto& [name, s] : self) {
      std::cerr << "  " << name << " " << s << " (" << total[name] << ")\n";
    }
    const std::string trace_path = opt.out + "/trace.json";
    tracer->write_json_file(trace_path);
    std::cerr << "spans: " << trace_path << " (" << tracer->recorded()
              << " events, " << tracer->dropped() << " dropped)\n";
  }

  // One line per metric, then the one-line JSON result.
  for (const auto& [name, m] : result) {
    std::printf("%-34s %16s %s\n", name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += ctx.checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ctx.checks.attempted);
  json += ", \"failed\": " + std::to_string(ctx.checks.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ctx.checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string key = argv[a];
      if (a + 1 >= argc) throw std::invalid_argument("missing value for " + key);
      const std::string value = argv[++a];
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--scenario-seed") {
        opt.scenario_seed = std::stoull(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--redirectd") {
        opt.redirectd = value;
      } else if (key == "--out") {
        opt.out = value;
      } else {
        throw std::invalid_argument("unknown option " + key);
      }
    }
    if (opt.workload.empty() || opt.redirectd.empty()) {
      throw std::invalid_argument("--workload and --redirectd are required");
    }
    signal(SIGPIPE, SIG_IGN);
    // A fixed mmap threshold: blocks of 4 MiB and more always get their own
    // mapping and go back to the system when freed.  glibc otherwise raises
    // the threshold after the first large free, and whether later large
    // blocks then stay resident depends on thread timing in the parallel
    // engine, which moved peak RSS by up to 50 MB between identical runs.
    mallopt(M_MMAP_THRESHOLD, 4 << 20);
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
