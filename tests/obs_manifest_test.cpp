// RunManifest provenance records and the registry's deterministic,
// naturally-ordered metric export.

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/run_manifest.h"
#include "src/util/error.h"

namespace cdn::obs {
namespace {

TEST(RunManifestTest, JsonCarriesIdentityBuildAndResources) {
  RunManifest manifest = make_run_manifest("unit_test");
  manifest.seed = 1234;
  manifest.threads = 4;
  manifest.shards = 8;
  manifest.add_fingerprint("system", 0xdeadbeefULL);
  manifest.add_fingerprint("config", 0x1ULL);
  manifest.finalize();

  const std::string json = manifest.to_json();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":8"), std::string::npos);
  // Fingerprints export as sorted 16-hex-digit strings.
  EXPECT_NE(json.find("\"system\":\"00000000deadbeef\""), std::string::npos);
  EXPECT_LT(json.find("\"config\""), json.find("\"system\""));
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\""), std::string::npos);
}

TEST(RunManifestTest, DuplicateFingerprintsDedupAndMismatchThrows) {
  RunManifest manifest = make_run_manifest("unit_test");
  manifest.add_fingerprint("system", 7);
  manifest.add_fingerprint("system", 7);  // same value: fine
  EXPECT_EQ(manifest.fingerprints.size(), 1u);
  EXPECT_THROW(manifest.add_fingerprint("system", 8), cdn::PreconditionError);
}

TEST(RunManifestTest, AddFingerprintsTakesCheckpointSections) {
  RunManifest manifest = make_run_manifest("unit_test");
  const std::vector<std::pair<std::string, std::uint64_t>> sections{
      {"config", 1}, {"placement", 2}};
  manifest.add_fingerprints(sections);
  EXPECT_EQ(manifest.fingerprints.size(), 2u);
}

TEST(RunManifestTest, FinalizeMeasuresElapsedWall) {
  RunManifest manifest = make_run_manifest("unit_test");
  manifest.finalize();
  EXPECT_GE(manifest.wall_seconds, 0.0);
  EXPECT_GE(manifest.cpu_seconds, 0.0);
#ifdef __unix__
  EXPECT_GT(manifest.peak_rss_bytes, 0u);
#endif
}

TEST(RunManifestTest, WallTimeCountsFromProcessStart) {
  // Tools build their manifest after the timed work; the recorded wall time
  // must still cover it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  RunManifest manifest = make_run_manifest("unit_test");
  manifest.finalize();
  EXPECT_GE(manifest.wall_seconds, 0.05);
  EXPECT_GT(manifest.cpu_seconds, 0.0);
#ifdef __unix__
  EXPECT_GT(manifest.peak_rss_bytes, 0u);
#endif
}

TEST(NaturalMetricOrderTest, DigitRunsCompareNumerically) {
  // The fix this ordering exists for: server/10 must not sort between
  // server/1 and server/2.
  EXPECT_TRUE(natural_metric_name_less("server/2/latency_ms",
                                       "server/10/latency_ms"));
  EXPECT_FALSE(natural_metric_name_less("server/10/latency_ms",
                                        "server/2/latency_ms"));
  EXPECT_TRUE(natural_metric_name_less("a1b", "a1c"));
  EXPECT_TRUE(natural_metric_name_less("a9", "a10"));
  EXPECT_TRUE(natural_metric_name_less("a", "a1"));
  // Strict weak ordering: equal strings are not less, and zero-padding
  // differences still produce a stable, asymmetric order.
  EXPECT_FALSE(natural_metric_name_less("a01", "a01"));
  EXPECT_NE(natural_metric_name_less("a01", "a1"),
            natural_metric_name_less("a1", "a01"));
}

TEST(NaturalMetricOrderTest, RegistryExportsServersInNumericOrder) {
  Registry registry;
  registry.counter("server/10/hits").add(1);
  registry.counter("server/2/hits").add(1);
  registry.counter("server/1/hits").add(1);
  const std::string json = registry.to_json();
  const auto p1 = json.find("server/1/hits");
  const auto p2 = json.find("server/2/hits");
  const auto p10 = json.find("server/10/hits");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(p10, std::string::npos);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p10);
}

TEST(RunManifestTest, RegistryEmbedsManifestFirst) {
  Registry registry;
  registry.counter("requests").add(5);
  RunManifest manifest = make_run_manifest("unit_test");
  manifest.seed = 42;
  const std::string json = registry.to_json(&manifest);
  const auto manifest_pos = json.find("\"manifest\"");
  const auto counters_pos = json.find("\"counters\"");
  ASSERT_NE(manifest_pos, std::string::npos);
  ASSERT_NE(counters_pos, std::string::npos);
  EXPECT_LT(manifest_pos, counters_pos);
  EXPECT_NE(json.find("\"tool\":\"unit_test\""), std::string::npos);
  // Without a manifest the export is unchanged legacy shape.
  EXPECT_EQ(registry.to_json().find("\"manifest\""), std::string::npos);
}

TEST(RunManifestTest, WriteJsonFileRoundTrips) {
  RunManifest manifest = make_run_manifest("unit_test");
  const std::string path = testing::TempDir() + "/manifest_test.json";
  manifest.write_json_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"schema_version\":1"), std::string::npos);
}

}  // namespace
}  // namespace cdn::obs
