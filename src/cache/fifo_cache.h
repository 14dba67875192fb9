// First-In-First-Out byte-capacity cache: like LRU but hits do not refresh
// an object's position.  Ablation baseline for the LRU model's sensitivity
// to recency updates.

#pragma once

#include <cstdint>

#include "src/cache/cache_policy.h"
#include "src/cache/probe_table.h"
#include "src/cache/slot_list.h"

namespace cdn::cache {

/// FIFO eviction: objects leave in admission order regardless of hits.
/// Same probe-table + slot-arena layout as LruCache; a hit is a single
/// table probe with no list update at all.
class FifoCache final : public CachePolicy {
 public:
  explicit FifoCache(std::uint64_t capacity_bytes);

  bool lookup(ObjectKey key) override;
  void admit(ObjectKey key, std::uint64_t bytes) override;
  bool erase(ObjectKey key) override;
  bool contains(ObjectKey key) const override;
  void clear() override;

  std::uint64_t capacity_bytes() const override { return capacity_; }
  std::uint64_t used_bytes() const override { return used_; }
  std::size_t object_count() const override { return index_.size(); }

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
  SlotList<Node> queue_;  // head = newest admission
  ProbeTable index_;      // key -> queue_ slot
};

}  // namespace cdn::cache
