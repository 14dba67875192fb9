#include "src/cache/delayed_lru_cache.h"

#include "src/util/error.h"

namespace cdn::cache {

DelayedLruCache::DelayedLruCache(std::uint64_t capacity_bytes,
                                 std::uint32_t admission_threshold,
                                 std::size_t ghost_entries)
    : inner_(capacity_bytes),
      threshold_(admission_threshold),
      ghost_capacity_(ghost_entries) {
  CDN_EXPECT(admission_threshold >= 1, "admission threshold must be >= 1");
  CDN_EXPECT(ghost_entries >= 1, "ghost directory must hold >= 1 entry");
}

bool DelayedLruCache::lookup(ObjectKey key) { return inner_.lookup(key); }

void DelayedLruCache::note_miss(ObjectKey key) {
  auto it = ghost_index_.find(key);
  if (it != ghost_index_.end()) {
    ++it->second.count;
    ghost_order_.splice(ghost_order_.begin(), ghost_order_, it->second.pos);
    return;
  }
  if (ghost_index_.size() >= ghost_capacity_) {
    ghost_index_.erase(ghost_order_.back());
    ghost_order_.pop_back();
  }
  ghost_order_.push_front(key);
  ghost_index_.emplace(key, GhostEntry{1, ghost_order_.begin()});
}

bool DelayedLruCache::ready_to_admit(ObjectKey key) const {
  const auto it = ghost_index_.find(key);
  return it != ghost_index_.end() && it->second.count >= threshold_;
}

void DelayedLruCache::admit(ObjectKey key, std::uint64_t bytes) {
  if (threshold_ == 1) {
    inner_.admit(key, bytes);
    return;
  }
  note_miss(key);
  if (ready_to_admit(key)) {
    inner_.admit(key, bytes);
    if (inner_.contains(key)) {
      auto it = ghost_index_.find(key);
      if (it != ghost_index_.end()) {
        ghost_order_.erase(it->second.pos);
        ghost_index_.erase(it);
      }
    }
  }
}

bool DelayedLruCache::erase(ObjectKey key) { return inner_.erase(key); }

bool DelayedLruCache::contains(ObjectKey key) const {
  return inner_.contains(key);
}

void DelayedLruCache::clear() {
  inner_.clear();
  ghost_order_.clear();
  ghost_index_.clear();
}

void DelayedLruCache::save_state(util::ByteWriter& w) const {
  inner_.save_state(w);
  stats_.save_state(w);
  w.u32(threshold_);
  w.u64(ghost_capacity_);
  w.u64(ghost_order_.size());
  for (const ObjectKey key : ghost_order_) {  // most recent first
    w.u64(key);
    const auto it = ghost_index_.find(key);
    CDN_CHECK(it != ghost_index_.end(), "ghost order/index out of sync");
    w.u32(it->second.count);
  }
}

void DelayedLruCache::restore_state(util::ByteReader& r) {
  clear();
  inner_.restore_state(r);
  stats_.restore_state(r);
  threshold_ = r.u32();
  CDN_EXPECT(threshold_ >= 1, "admission threshold must be >= 1");
  ghost_capacity_ = static_cast<std::size_t>(r.u64());
  CDN_EXPECT(ghost_capacity_ >= 1, "ghost directory must hold >= 1 entry");
  const std::uint64_t n = r.u64();
  r.need(n * 12, "ghost entries");
  CDN_EXPECT(n <= ghost_capacity_, "ghost directory exceeds its capacity");
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectKey key = r.u64();
    const std::uint32_t count = r.u32();
    ghost_order_.push_back(key);
    ghost_index_.emplace(key, GhostEntry{count, std::prev(ghost_order_.end())});
  }
}

}  // namespace cdn::cache
