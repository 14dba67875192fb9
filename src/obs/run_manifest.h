// Run provenance manifests.
//
// A RunManifest records everything needed to interpret (and trust) an
// exported artifact after the fact: what binary produced it (compiler,
// build type, sanitizer/assertion flags), what inputs it ran on
// (fingerprint hashes reusing the src/recover checkpoint sections, the
// seed, thread/shard shape), and what it cost (wall time, CPU time, peak
// RSS).  It is embedded under a top-level "manifest" key in metrics JSON
// exports and in every BENCH_*.json artifact, so a baseline committed to
// the repo carries its own provenance.
//
//   obs::RunManifest manifest = obs::make_run_manifest("hybridcdn_cli");
//   manifest.seed = sim.seed;
//   manifest.add_fingerprints(sim::detail::checkpoint_fingerprint(...));
//   ... the run ...
//   manifest.finalize();                      // samples wall/cpu/RSS
//   obs::write_json_file(registry, path, &manifest);

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cdn::obs {

class JsonWriter;

struct RunManifest {
  /// Manifest JSON layout version; bump on any field change.
  static constexpr std::uint32_t kSchemaVersion = 1;

  std::string tool;           // producing binary, e.g. "hybridcdn_cli"
  std::uint64_t seed = 0;
  std::uint64_t threads = 0;  // resolved worker threads (0 = not a sim run)
  std::uint64_t shards = 0;   // resolved shard count (0 = sequential/none)

  /// Named 64-bit input hashes; the names match the src/recover checkpoint
  /// fingerprint sections ("config", "system", "placement", ...).  Exported
  /// sorted by name as zero-padded hex.
  std::vector<std::pair<std::string, std::uint64_t>> fingerprints;

  std::string compiler;    // __VERSION__ of the producing build
  std::string build_type;  // CMake config (Release, Debug, ...)
  std::string build_flags; // "ndebug" / "assertions" [+ ",asan"/",tsan"/...]

  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;        // user+system, whole process
  std::uint64_t peak_rss_bytes = 0;

  void add_fingerprint(const std::string& name, std::uint64_t hash);
  /// Appends checkpoint fingerprint sections (recover::FingerprintSection
  /// is exactly this pair type); duplicate names are skipped.
  void add_fingerprints(
      const std::vector<std::pair<std::string, std::uint64_t>>& sections);

  /// Samples wall time (since process start), process CPU time, and peak
  /// RSS into the corresponding fields.  Call once at end of run.
  void finalize();

  /// Writes the manifest object as the next JSON value on `w`.
  void write_value(JsonWriter& w) const;
  /// The manifest as a standalone JSON document.
  std::string to_json() const;
  /// Writes `to_json()` to `path` (truncating).  Throws on I/O error.
  void write_json_file(const std::string& path) const;

  /// Steady-clock ns at process start; set by make_run_manifest and read
  /// by finalize().  Not exported.
  std::uint64_t start_steady_ns = 0;
};

/// A manifest pre-filled with build provenance (compiler, build type,
/// flags) and the process-start wall-clock mark.
RunManifest make_run_manifest(std::string tool);

}  // namespace cdn::obs
