#include "src/cache/lru_cache.h"

#include "src/util/error.h"

namespace cdn::cache {

namespace {
constexpr std::uint32_t kNil = ProbeTable::kNil;
}  // namespace

LruCache::LruCache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

bool LruCache::lookup(ObjectKey key) {
  const std::uint32_t slot = index_.find(key);
  if (slot == kNil) return false;
  recency_.move_to_front(slot);
  return true;
}

void LruCache::admit(ObjectKey key, std::uint64_t bytes) {
  if (bytes > capacity_) return;
  if (index_.contains(key)) return;
  while (used_ + bytes > capacity_) evict_one();
  const std::uint32_t slot = recency_.alloc({key, bytes, kNil, kNil});
  recency_.push_front(slot);
  index_.insert(key, slot);
  used_ += bytes;
  stats_.record_admission(bytes);
}

bool LruCache::erase(ObjectKey key) {
  const std::uint32_t slot = index_.find(key);
  if (slot == kNil) return false;
  used_ -= recency_[slot].bytes;
  recency_.remove(slot);
  index_.erase(key);
  return true;
}

bool LruCache::contains(ObjectKey key) const { return index_.contains(key); }

void LruCache::clear() {
  recency_.clear();
  index_.clear();
  used_ = 0;
}

ObjectKey LruCache::lru_key() const {
  CDN_EXPECT(!recency_.empty(), "lru_key of empty cache");
  return recency_[recency_.tail()].key;
}

ObjectKey LruCache::mru_key() const {
  CDN_EXPECT(!recency_.empty(), "mru_key of empty cache");
  return recency_[recency_.head()].key;
}

void LruCache::save_state(util::ByteWriter& w) const {
  w.u64(capacity_);
  stats_.save_state(w);
  w.u64(recency_.size());
  for (std::uint32_t s = recency_.head(); s != kNil; s = recency_[s].next) {
    w.u64(recency_[s].key);  // MRU -> LRU
    w.u64(recency_[s].bytes);
  }
}

void LruCache::restore_state(util::ByteReader& r) {
  clear();
  capacity_ = r.u64();
  stats_.restore_state(r);
  const std::uint64_t n = r.u64();
  r.need(n * 16, "lru entries");
  recency_.reserve(n);
  index_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectKey key = r.u64();
    const std::uint64_t bytes = r.u64();
    const std::uint32_t slot = recency_.alloc({key, bytes, kNil, kNil});
    recency_.push_back(slot);
    index_.insert(key, slot);
    used_ += bytes;
  }
  CDN_EXPECT(used_ <= capacity_, "restored cache exceeds its capacity");
}

void LruCache::evict_one() {
  CDN_DCHECK(!recency_.empty(), "eviction from empty cache");
  const std::uint32_t victim = recency_.tail();
  used_ -= recency_[victim].bytes;
  index_.erase(recency_[victim].key);
  stats_.record_eviction(recency_[victim].bytes);
  recency_.remove(victim);
}

}  // namespace cdn::cache
