// Placement-engine scaling benchmark — Figure-2 oracle vs incremental
// lazy-greedy.
//
// Builds a deterministic N-server / M-site system (ring server topology,
// varied primary distances — no random topology generation, so the bench
// measures placement alone) and runs the hybrid greedy twice: once as the
// reference oracle of tests/reference_placement.* (full O(N*M)
// re-evaluation every iteration) and once as the product's hybrid_greedy()
// (the lazy-heap engine).  The two must agree bitwise on the placement and
// cost trajectory; the bench asserts that before it reports anything, so a
// speedup number can never come from a divergent answer.
//
// Emits a schema-versioned BENCH_placement.json artifact (see
// bench/bench_artifact.h) with an embedded provenance manifest, keyed:
//
//   reference_ms / incremental_ms          wall-clock per engine
//   speedup                                reference_ms / incremental_ms
//   reference_candidates / incremental_candidates  benefit evaluations
//   candidate_reduction                    reference / incremental evals
//   replicas                               replicas placed (identical)
//
// The candidate counts and replica count are machine-independent facts
// about the algorithms — tight thresholds — while the wall/speedup numbers
// carry generous ones.  scripts/check_bench_regression.py diffs the file
// against bench/baselines/BENCH_placement.json in CI.
//
// Usage: bench_placement_scaling [--smoke] [artifact.json]
//   --smoke  small system, equivalence check only (CI sanitizer runs).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_artifact.h"
#include "src/cdn/system.h"
#include "src/obs/registry.h"
#include "src/obs/run_manifest.h"
#include "src/placement/hybrid_greedy.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/workload/demand.h"
#include "src/workload/site_catalog.h"
#include "tests/reference_placement.h"

namespace {

using namespace cdn;

// Owns every component of a synthetic CdnSystem (mirrors the test fixture,
// scaled up).  Servers sit on a ring — C(i,k) = min(|i-k|, n-|i-k|) — and
// primary distances vary per (server, site) so the nearest-replica
// structure is non-trivial.
struct BenchSystem {
  std::unique_ptr<workload::SiteCatalog> catalog;
  std::unique_ptr<workload::DemandMatrix> demand;
  std::unique_ptr<sys::DistanceOracle> distances;
  std::unique_ptr<sys::CdnSystem> system;

  static BenchSystem make(std::size_t servers, std::size_t low_sites,
                          std::size_t high_sites,
                          std::size_t objects_per_site,
                          double storage_fraction, std::uint64_t seed) {
    BenchSystem b;
    workload::SurgeParams params;
    params.objects_per_site = objects_per_site;
    const std::vector<workload::PopularityClass> classes{
        {low_sites, 1.0, "low"}, {high_sites, 8.0, "high"}};
    util::Rng rng(seed);
    b.catalog = std::make_unique<workload::SiteCatalog>(
        workload::SiteCatalog::generate(params, classes, rng));

    util::Rng demand_rng(seed + 1);
    b.demand = std::make_unique<workload::DemandMatrix>(
        workload::DemandMatrix::generate(*b.catalog, servers, 1e7,
                                         demand_rng));

    const std::size_t sites = b.catalog->site_count();
    std::vector<double> ss(servers * servers);
    for (std::size_t i = 0; i < servers; ++i) {
      for (std::size_t k = 0; k < servers; ++k) {
        const std::size_t d = i > k ? i - k : k - i;
        ss[i * servers + k] = static_cast<double>(d < servers - d
                                                      ? d
                                                      : servers - d);
      }
    }
    std::vector<double> sp(servers * sites);
    const double half = static_cast<double>(servers) / 2.0;
    for (std::size_t i = 0; i < servers; ++i) {
      for (std::size_t j = 0; j < sites; ++j) {
        // Primaries are farther than most of the ring, with per-pair
        // variation so different servers prefer different replica spots.
        sp[i * sites + j] = half + 2.0 + static_cast<double>((i + 3 * j) % 7);
      }
    }
    b.distances = std::make_unique<sys::DistanceOracle>(
        servers, sites, std::move(ss), std::move(sp));
    b.system = std::make_unique<sys::CdnSystem>(*b.catalog, *b.demand,
                                                *b.distances,
                                                storage_fraction);
    return b;
  }
};

struct EngineRun {
  placement::PlacementResult result;
  double wall_ms = 0.0;
  double candidates = 0.0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

EngineRun run_reference(const sys::CdnSystem& system) {
  const auto start = std::chrono::steady_clock::now();
  test::ReferencePlacement ref = test::reference_hybrid_greedy(system);
  EngineRun run{std::move(ref.result)};
  run.wall_ms = ms_since(start);
  run.candidates = static_cast<double>(ref.candidates);
  return run;
}

EngineRun run_incremental(const sys::CdnSystem& system) {
  obs::Registry registry;
  placement::HybridGreedyOptions options;
  options.metrics = &registry;
  const auto start = std::chrono::steady_clock::now();
  EngineRun run{placement::hybrid_greedy(system, options)};
  run.wall_ms = ms_since(start);
  if (const auto* c =
          registry.find_counter("placement/hybrid/candidates_evaluated")) {
    run.candidates = static_cast<double>(c->value());
  }
  return run;
}

// Bitwise agreement between the engines: same cells, same trajectory.
bool equivalent(const sys::CdnSystem& system, const EngineRun& ref,
                const EngineRun& inc) {
  bool ok = true;
  for (std::size_t i = 0; i < system.server_count(); ++i) {
    for (std::size_t j = 0; j < system.site_count(); ++j) {
      if (ref.result.placement.is_replicated(
              static_cast<sys::ServerIndex>(i),
              static_cast<sys::SiteIndex>(j)) !=
          inc.result.placement.is_replicated(
              static_cast<sys::ServerIndex>(i),
              static_cast<sys::SiteIndex>(j))) {
        std::cerr << "MISMATCH placement cell (" << i << ", " << j << ")\n";
        ok = false;
      }
    }
  }
  if (ref.result.cost_trajectory != inc.result.cost_trajectory) {
    std::cerr << "MISMATCH cost trajectory (sizes "
              << ref.result.cost_trajectory.size() << " vs "
              << inc.result.cost_trajectory.size() << ")\n";
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string metrics_path = "placement_scaling_metrics.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      metrics_path = arg;
    }
  }

  std::cout << "Hybrid placement scaling: reference vs incremental engine\n\n";

  // Smoke keeps CI sanitizer runs fast but still exercises both engines end
  // to end; the full size is the ISSUE's scaling target (N=256, M=64).
  const std::size_t servers = smoke ? 24 : 256;
  const std::size_t low_sites = smoke ? 9 : 48;
  const std::size_t high_sites = smoke ? 3 : 16;
  const std::size_t objects_per_site = smoke ? 50 : 60;
  const auto bench = BenchSystem::make(servers, low_sites, high_sites,
                                       objects_per_site,
                                       /*storage_fraction=*/0.04,
                                       /*seed=*/2005);
  const sys::CdnSystem& system = *bench.system;

  const auto reference = run_reference(system);
  const auto incremental = run_incremental(system);

  if (!equivalent(system, reference, incremental)) {
    std::cerr << "engines diverged; refusing to report timings\n";
    return 1;
  }

  const double speedup = incremental.wall_ms > 0.0
                             ? reference.wall_ms / incremental.wall_ms
                             : 0.0;
  const double reduction = incremental.candidates > 0.0
                               ? reference.candidates / incremental.candidates
                               : 0.0;

  util::TextTable table(
      {"engine", "wall_ms", "candidates", "replicas", "cost/req"});
  table.add_row({"reference", util::format_double(reference.wall_ms, 1),
                 util::format_double(reference.candidates, 0),
                 std::to_string(reference.result.replicas_created),
                 util::format_double(
                     reference.result.predicted_cost_per_request, 4)});
  table.add_row({"incremental", util::format_double(incremental.wall_ms, 1),
                 util::format_double(incremental.candidates, 0),
                 std::to_string(incremental.result.replicas_created),
                 util::format_double(
                     incremental.result.predicted_cost_per_request, 4)});
  std::cout << table.str() << '\n';
  std::cout << "speedup " << util::format_double(speedup, 2)
            << "x, candidate reduction " << util::format_double(reduction, 2)
            << "x, engines byte-identical\n";

  obs::RunManifest manifest = obs::make_run_manifest(
      smoke ? "bench_placement_scaling --smoke" : "bench_placement_scaling");
  manifest.seed = 2005;

  bench::BenchArtifact artifact("placement_scaling");
  artifact.set("servers", static_cast<double>(servers), "count",
               /*higher_is_better=*/true, /*threshold_pct=*/0.0);
  artifact.set("sites", static_cast<double>(system.site_count()), "count",
               true, 0.0);
  artifact.set("reference_ms", reference.wall_ms, "ms", false, 75.0);
  artifact.set("incremental_ms", incremental.wall_ms, "ms", false, 75.0);
  artifact.set("speedup", speedup, "x", true, 90.0);
  // Benefit-evaluation counts are pure algorithm facts: any drift means the
  // engines changed, not the machine, so they are gated exactly.
  artifact.set("reference_candidates", reference.candidates, "count", false,
               0.0);
  artifact.set("incremental_candidates", incremental.candidates, "count",
               false, 0.0);
  artifact.set("candidate_reduction", reduction, "x", true, 0.0);
  artifact.set("replicas",
               static_cast<double>(incremental.result.replicas_created),
               "count", true, 0.0);
  artifact.write_json_file(metrics_path, manifest);
  std::cout << "artifact: " << metrics_path << '\n';
  return 0;
}
