// Least-Recently-Used byte-capacity cache — the policy modelled analytically
// in Section 3.2 and simulated throughout the paper's evaluation.

#pragma once

#include <cstdint>

#include "src/cache/cache_policy.h"
#include "src/cache/probe_table.h"
#include "src/cache/slot_list.h"

namespace cdn::cache {

/// Classic LRU: open-addressed probe table + arena-backed recency list.
/// All operations O(1) amortised, with the hit path (probe + relink) free
/// of node allocation and bucket-chain pointer chasing.  The recency
/// list's head is the most-recent end (the "rear" of the buffer in the
/// paper's Figure 1); eviction pops the tail.
class LruCache final : public CachePolicy {
 public:
  explicit LruCache(std::uint64_t capacity_bytes);

  bool lookup(ObjectKey key) override;
  void admit(ObjectKey key, std::uint64_t bytes) override;
  bool erase(ObjectKey key) override;
  bool contains(ObjectKey key) const override;
  void clear() override;

  std::uint64_t capacity_bytes() const override { return capacity_; }
  std::uint64_t used_bytes() const override { return used_; }
  std::size_t object_count() const override { return index_.size(); }

  /// Key that would be evicted next (the least recently used).
  /// Requires a non-empty cache.
  ObjectKey lru_key() const;

  /// Key at the most-recent position.  Requires a non-empty cache.
  ObjectKey mru_key() const;

  void save_state(util::ByteWriter& w) const override;
  void restore_state(util::ByteReader& r) override;

 private:
  struct Node {
    ObjectKey key;
    std::uint64_t bytes;
    std::uint32_t prev;
    std::uint32_t next;
  };

  void evict_one();

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  SlotList<Node> recency_;  // head = most recent
  ProbeTable index_;        // key -> recency_ slot
};

}  // namespace cdn::cache
