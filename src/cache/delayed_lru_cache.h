// Delayed-LRU: an LRU cache that only admits an object after it has been
// requested `admission_threshold` times — the scheme Karlsson & Mahalingam
// [15] found competitive with replica placement algorithms, cited by the
// paper as supporting evidence.  Reference counts for non-resident objects
// live in a bounded LRU "ghost" directory.

#pragma once

#include <cstdint>

#include "src/cache/cache_policy.h"
#include "src/cache/lru_cache.h"

#include <list>
#include <unordered_map>

namespace cdn::cache {

/// LRU with delayed admission.  threshold = 1 degenerates to plain LRU.
class DelayedLruCache final : public CachePolicy {
 public:
  /// `ghost_entries` bounds the miss-counting directory (per-object
  /// metadata only, no bytes).
  DelayedLruCache(std::uint64_t capacity_bytes,
                  std::uint32_t admission_threshold = 2,
                  std::size_t ghost_entries = 1 << 16);

  bool lookup(ObjectKey key) override;
  void admit(ObjectKey key, std::uint64_t bytes) override;
  bool erase(ObjectKey key) override;
  bool contains(ObjectKey key) const override;
  void clear() override;

  std::uint64_t capacity_bytes() const override {
    return inner_.capacity_bytes();
  }
  std::uint64_t used_bytes() const override { return inner_.used_bytes(); }
  std::size_t object_count() const override { return inner_.object_count(); }

  std::uint32_t admission_threshold() const noexcept { return threshold_; }
  std::size_t ghost_size() const noexcept { return ghost_index_.size(); }

  /// Hits/misses are recorded at this level (CachePolicy::access), but the
  /// churn — admissions past the threshold, evictions — happens inside the
  /// wrapped LRU, which records it into its own stats.  The override folds
  /// both together so callers see one complete view.
  const CacheStats& stats() const noexcept override {
    merged_stats_ = stats_;
    merged_stats_.merge(inner_.stats());
    return merged_stats_;
  }
  void reset_stats() noexcept override {
    stats_.reset();
    inner_.reset_stats();
  }

  void save_state(util::ByteWriter& w) const override;
  void restore_state(util::ByteReader& r) override;

 private:
  void note_miss(ObjectKey key);
  bool ready_to_admit(ObjectKey key) const;

  LruCache inner_;
  mutable CacheStats merged_stats_;  // scratch for the stats() override
  std::uint32_t threshold_;
  std::size_t ghost_capacity_;
  // Ghost directory: key -> seen-count, LRU-bounded.
  std::list<ObjectKey> ghost_order_;  // front = most recent
  struct GhostEntry {
    std::uint32_t count;
    std::list<ObjectKey>::iterator pos;
  };
  std::unordered_map<ObjectKey, GhostEntry> ghost_index_;
};

}  // namespace cdn::cache
