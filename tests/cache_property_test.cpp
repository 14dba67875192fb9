// Property-based tests run over EVERY cache policy: capacity invariants,
// residency consistency, and stats sanity under randomized workloads.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cache/cache_factory.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace {

using namespace cdn::cache;
using cdn::util::Rng;
using cdn::util::ZipfDistribution;

class CachePropertyTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(CachePropertyTest, NeverExceedsCapacityUnderRandomWorkload) {
  auto cache = make_cache(GetParam(), 1000);
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const ObjectKey key = rng.uniform_index(500);
    const auto bytes = rng.uniform_index(300) + 1;
    cache->access(key, bytes);
    ASSERT_LE(cache->used_bytes(), cache->capacity_bytes());
  }
}

TEST_P(CachePropertyTest, UsedBytesMatchesResidentObjects) {
  // Fixed per-key sizes so residency bytes are recomputable.
  auto cache = make_cache(GetParam(), 2000);
  Rng rng(43);
  std::vector<std::uint64_t> sizes(300);
  for (auto& s : sizes) s = rng.uniform_index(100) + 1;
  for (int i = 0; i < 20000; ++i) {
    const ObjectKey key = rng.uniform_index(sizes.size());
    cache->access(key, sizes[key]);
  }
  std::uint64_t recomputed = 0;
  std::size_t resident = 0;
  for (ObjectKey key = 0; key < sizes.size(); ++key) {
    if (cache->contains(key)) {
      recomputed += sizes[key];
      ++resident;
    }
  }
  EXPECT_EQ(recomputed, cache->used_bytes());
  EXPECT_EQ(resident, cache->object_count());
}

TEST_P(CachePropertyTest, LookupConsistentWithContains) {
  auto cache = make_cache(GetParam(), 500);
  Rng rng(44);
  for (int i = 0; i < 5000; ++i) {
    const ObjectKey key = rng.uniform_index(100);
    const bool resident = cache->contains(key);
    EXPECT_EQ(cache->lookup(key), resident);
    if (!resident) cache->admit(key, rng.uniform_index(50) + 1);
  }
}

TEST_P(CachePropertyTest, EraseAllLeavesEmpty) {
  auto cache = make_cache(GetParam(), 1000);
  for (ObjectKey key = 0; key < 50; ++key) cache->admit(key, 10);
  for (ObjectKey key = 0; key < 50; ++key) cache->erase(key);
  EXPECT_EQ(cache->used_bytes(), 0u);
  EXPECT_EQ(cache->object_count(), 0u);
}

TEST_P(CachePropertyTest, StatsAccountEveryAccess) {
  auto cache = make_cache(GetParam(), 300);
  Rng rng(46);
  const std::uint64_t n = 10000;
  for (std::uint64_t i = 0; i < n; ++i) {
    cache->access(rng.uniform_index(100), rng.uniform_index(20) + 1);
  }
  EXPECT_EQ(cache->stats().accesses(), n);
  EXPECT_EQ(cache->stats().hits() + cache->stats().misses(), n);
  EXPECT_GE(cache->stats().hit_ratio(), 0.0);
  EXPECT_LE(cache->stats().hit_ratio(), 1.0);
}

TEST_P(CachePropertyTest, ZipfWorkloadPrefersPopularObjects) {
  // Under a skewed workload every reasonable policy keeps the most popular
  // object resident almost always; verify hit ratio of rank 1 exceeds that
  // of a deep-tail rank.
  auto cache = make_cache(GetParam(), 80);  // 80 of 1000 unit objects fit
  ZipfDistribution zipf(1000, 1.0);
  Rng rng(47);
  std::uint64_t rank1_hits = 0, rank1 = 0, tail_hits = 0, tail = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::size_t rank = zipf.sample(rng);
    const bool hit = cache->access(rank, 1);
    if (rank == 1) {
      ++rank1;
      rank1_hits += hit;
    } else if (rank >= 900) {
      ++tail;
      tail_hits += hit;
    }
  }
  ASSERT_GT(rank1, 0u);
  ASSERT_GT(tail, 0u);
  const double h1 = static_cast<double>(rank1_hits) / static_cast<double>(rank1);
  const double ht = static_cast<double>(tail_hits) / static_cast<double>(tail);
  EXPECT_GT(h1, ht + 0.3) << policy_name(GetParam());
}

TEST_P(CachePropertyTest, DeterministicReplay) {
  auto a = make_cache(GetParam(), 700);
  auto b = make_cache(GetParam(), 700);
  Rng rng(48);
  std::vector<std::pair<ObjectKey, std::uint64_t>> ops;
  for (int i = 0; i < 5000; ++i) {
    ops.emplace_back(rng.uniform_index(150), rng.uniform_index(40) + 1);
  }
  for (const auto& [key, bytes] : ops) a->access(key, bytes);
  for (const auto& [key, bytes] : ops) b->access(key, bytes);
  EXPECT_EQ(a->used_bytes(), b->used_bytes());
  EXPECT_EQ(a->object_count(), b->object_count());
  EXPECT_EQ(a->stats().hits(), b->stats().hits());
  for (ObjectKey key = 0; key < 150; ++key) {
    EXPECT_EQ(a->contains(key), b->contains(key));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CachePropertyTest,
    ::testing::Values(PolicyKind::kLru, PolicyKind::kFifo, PolicyKind::kLfu,
                      PolicyKind::kClock, PolicyKind::kDelayedLru),
    [](const ::testing::TestParamInfo<PolicyKind>& param_info) {
      std::string name = policy_name(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
