// CLOCK (second-chance) byte-capacity cache: an LRU approximation with
// cheaper hit handling.  Extension baseline beyond the paper.

#pragma once

#include <cstdint>

#include "src/cache/cache_policy.h"
#include "src/cache/probe_table.h"
#include "src/cache/slot_list.h"

namespace cdn::cache {

/// CLOCK keeps entries on a circular order with a reference bit; the hand
/// clears bits until it finds an unreferenced victim.  The order lives in
/// an arena-backed slot list (the hand wraps tail -> head), so a hit is a
/// probe-table lookup plus one bit set — no list surgery at all.
class ClockCache final : public CachePolicy {
 public:
  explicit ClockCache(std::uint64_t capacity_bytes);

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
    bool referenced;
  };

  void evict_one();
  void advance_hand();

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  SlotList<Node> ring_;
  std::uint32_t hand_ = SlotList<Node>::kNil;  // kNil only when empty
  ProbeTable index_;                           // key -> ring_ slot
};

}  // namespace cdn::cache
