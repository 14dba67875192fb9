// Least-Frequently-Used byte-capacity cache with O(1) operations via
// frequency buckets (Ketan Shah et al. style).  Ties within a frequency
// bucket break LRU.  Extension baseline beyond the paper.

#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>

#include "src/cache/cache_policy.h"

namespace cdn::cache {

/// In-cache LFU (frequency state is lost on eviction, i.e. "perfect LFU"
/// within a residency period).
class LfuCache final : public CachePolicy {
 public:
  explicit LfuCache(std::uint64_t capacity_bytes);

  bool lookup(ObjectKey key) override;
  void admit(ObjectKey key, std::uint64_t bytes) override;
  bool erase(ObjectKey key) override;
  bool contains(ObjectKey key) const override;
  void clear() override;

  std::uint64_t capacity_bytes() const override { return capacity_; }
  std::uint64_t used_bytes() const override { return used_; }
  std::size_t object_count() const override { return index_.size(); }

  /// Current reference count of a resident key; 0 if absent.
  std::uint64_t frequency(ObjectKey key) const;

  void save_state(util::ByteWriter& w) const override;
  void restore_state(util::ByteReader& r) override;

 private:
  struct Entry {
    ObjectKey key;
    std::uint64_t bytes;
    std::uint64_t freq;
  };
  // Bucket per frequency; within a bucket, front = most recently touched.
  using Bucket = std::list<Entry>;

  struct Locator {
    std::map<std::uint64_t, Bucket>::iterator bucket;
    Bucket::iterator entry;
  };

  void evict_one();
  void bump(const std::unordered_map<ObjectKey, Locator>::iterator& it);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::map<std::uint64_t, Bucket> buckets_;  // ordered by frequency
  std::unordered_map<ObjectKey, Locator> index_;
};

}  // namespace cdn::cache
