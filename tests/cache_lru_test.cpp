// Unit tests for the LRU cache — including hand-computed eviction traces
// that pin down the exact semantics the analytical model assumes.

#include <gtest/gtest.h>

#include "src/cache/lru_cache.h"
#include "src/util/error.h"

namespace {

using cdn::cache::LruCache;

TEST(LruCacheTest, MissThenHit) {
  LruCache cache(100);
  EXPECT_FALSE(cache.lookup(1));
  cache.admit(1, 10);
  EXPECT_TRUE(cache.lookup(1));
  EXPECT_EQ(cache.used_bytes(), 10u);
  EXPECT_EQ(cache.object_count(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(30);
  cache.admit(1, 10);
  cache.admit(2, 10);
  cache.admit(3, 10);
  cache.admit(4, 10);  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LruCacheTest, LookupRefreshesRecency) {
  LruCache cache(30);
  cache.admit(1, 10);
  cache.admit(2, 10);
  cache.admit(3, 10);
  EXPECT_TRUE(cache.lookup(1));  // 1 becomes MRU; 2 is now LRU
  cache.admit(4, 10);            // evicts 2, not 1
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(LruCacheTest, ContainsDoesNotRefreshRecency) {
  LruCache cache(20);
  cache.admit(1, 10);
  cache.admit(2, 10);
  EXPECT_TRUE(cache.contains(1));  // must NOT touch recency
  cache.admit(3, 10);              // evicts 1 (still LRU)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LruCacheTest, VariableSizesEvictUntilFit) {
  LruCache cache(100);
  cache.admit(1, 40);
  cache.admit(2, 40);
  cache.admit(3, 60);  // needs 60: evicting LRU object 1 suffices (40+60)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_EQ(cache.used_bytes(), 100u);
  cache.admit(4, 90);  // must evict BOTH 2 and 3
  EXPECT_FALSE(cache.contains(2));
  EXPECT_FALSE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.used_bytes(), 90u);
}

TEST(LruCacheTest, OversizedObjectNeverAdmitted) {
  LruCache cache(50);
  cache.admit(1, 20);
  cache.admit(2, 51);  // larger than capacity: ignored
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));  // and nothing was evicted for it
  EXPECT_EQ(cache.used_bytes(), 20u);
}

TEST(LruCacheTest, ReAdmitIsNoop) {
  LruCache cache(50);
  cache.admit(1, 20);
  cache.admit(1, 20);
  EXPECT_EQ(cache.object_count(), 1u);
  EXPECT_EQ(cache.used_bytes(), 20u);
}

TEST(LruCacheTest, EraseFreesBytes) {
  LruCache cache(50);
  cache.admit(1, 20);
  cache.admit(2, 20);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.used_bytes(), 20u);
  EXPECT_FALSE(cache.contains(1));
}

TEST(LruCacheTest, ClearResetsEverything) {
  LruCache cache(100);
  cache.admit(1, 10);
  cache.admit(2, 10);
  cache.clear();
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.object_count(), 0u);
  EXPECT_FALSE(cache.contains(1));
}

TEST(LruCacheTest, LruAndMruKeysTrackOrder) {
  LruCache cache(100);
  cache.admit(1, 10);
  cache.admit(2, 10);
  cache.admit(3, 10);
  EXPECT_EQ(cache.mru_key(), 3u);
  EXPECT_EQ(cache.lru_key(), 1u);
  cache.lookup(1);
  EXPECT_EQ(cache.mru_key(), 1u);
  EXPECT_EQ(cache.lru_key(), 2u);
}

TEST(LruCacheTest, LruKeyOfEmptyThrows) {
  LruCache cache(10);
  EXPECT_THROW(cache.lru_key(), cdn::PreconditionError);
  EXPECT_THROW(cache.mru_key(), cdn::PreconditionError);
}

TEST(LruCacheTest, AccessRecordsStats) {
  LruCache cache(100);
  EXPECT_FALSE(cache.access(1, 10));  // miss + admit
  EXPECT_TRUE(cache.access(1, 10));   // hit
  EXPECT_TRUE(cache.access(1, 10));
  EXPECT_EQ(cache.stats().hits(), 2u);
  EXPECT_EQ(cache.stats().misses(), 1u);
  EXPECT_NEAR(cache.stats().hit_ratio(), 2.0 / 3.0, 1e-12);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses(), 0u);
}

TEST(LruCacheTest, EvictionCounterAdvances) {
  LruCache cache(20);
  cache.access(1, 10);
  cache.access(2, 10);
  cache.access(3, 10);  // evicts 1
  EXPECT_EQ(cache.stats().evictions(), 1u);
}

TEST(LruCacheTest, PaperBufferTrace) {
  // Figure 1 semantics with B = 3 unit-size slots: an object never
  // re-requested is evicted after exactly 3 *distinct-object insertions*
  // push it out the front.
  LruCache cache(3);
  cache.admit(10, 1);  // position 1 (most recent)
  cache.admit(11, 1);  // 10 -> position 2
  cache.admit(12, 1);  // 10 -> position 3 (front)
  EXPECT_TRUE(cache.contains(10));
  cache.admit(13, 1);  // 10 falls off
  EXPECT_FALSE(cache.contains(10));
}

TEST(LruCacheTest, ZeroCapacityAdmitsNothing) {
  LruCache cache(0);
  cache.admit(1, 1);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

}  // namespace
