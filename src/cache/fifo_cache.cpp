#include "src/cache/fifo_cache.h"

#include "src/util/error.h"

namespace cdn::cache {

namespace {
constexpr std::uint32_t kNil = ProbeTable::kNil;
}  // namespace

FifoCache::FifoCache(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {}

bool FifoCache::lookup(ObjectKey key) { return index_.contains(key); }

void FifoCache::admit(ObjectKey key, std::uint64_t bytes) {
  if (bytes > capacity_) return;
  if (index_.contains(key)) return;
  while (used_ + bytes > capacity_) evict_one();
  const std::uint32_t slot = queue_.alloc({key, bytes, kNil, kNil});
  queue_.push_front(slot);
  index_.insert(key, slot);
  used_ += bytes;
  stats_.record_admission(bytes);
}

bool FifoCache::erase(ObjectKey key) {
  const std::uint32_t slot = index_.find(key);
  if (slot == kNil) return false;
  used_ -= queue_[slot].bytes;
  queue_.remove(slot);
  index_.erase(key);
  return true;
}

bool FifoCache::contains(ObjectKey key) const { return index_.contains(key); }

void FifoCache::clear() {
  queue_.clear();
  index_.clear();
  used_ = 0;
}

void FifoCache::save_state(util::ByteWriter& w) const {
  w.u64(capacity_);
  stats_.save_state(w);
  w.u64(queue_.size());
  for (std::uint32_t s = queue_.head(); s != kNil; s = queue_[s].next) {
    w.u64(queue_[s].key);  // newest -> oldest admission
    w.u64(queue_[s].bytes);
  }
}

void FifoCache::restore_state(util::ByteReader& r) {
  clear();
  capacity_ = r.u64();
  stats_.restore_state(r);
  const std::uint64_t n = r.u64();
  r.need(n * 16, "fifo entries");
  queue_.reserve(n);
  index_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectKey key = r.u64();
    const std::uint64_t bytes = r.u64();
    const std::uint32_t slot = queue_.alloc({key, bytes, kNil, kNil});
    queue_.push_back(slot);
    index_.insert(key, slot);
    used_ += bytes;
  }
  CDN_EXPECT(used_ <= capacity_, "restored cache exceeds its capacity");
}

void FifoCache::evict_one() {
  CDN_DCHECK(!queue_.empty(), "eviction from empty cache");
  const std::uint32_t victim = queue_.tail();
  used_ -= queue_[victim].bytes;
  index_.erase(queue_[victim].key);
  stats_.record_eviction(queue_[victim].bytes);
  queue_.remove(victim);
}

}  // namespace cdn::cache
