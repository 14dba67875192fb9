#include "src/cache/clock_cache.h"

#include "src/util/error.h"

namespace cdn::cache {

namespace {
constexpr std::uint32_t kNil = ProbeTable::kNil;
}  // namespace

ClockCache::ClockCache(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {}

bool ClockCache::lookup(ObjectKey key) {
  const std::uint32_t slot = index_.find(key);
  if (slot == kNil) return false;
  ring_[slot].referenced = true;
  return true;
}

void ClockCache::advance_hand() {
  if (ring_.empty()) {
    hand_ = kNil;
    return;
  }
  hand_ = ring_[hand_].next;
  if (hand_ == kNil) hand_ = ring_.head();  // wrap: the list is a ring
}

void ClockCache::admit(ObjectKey key, std::uint64_t bytes) {
  if (bytes > capacity_) return;
  if (index_.contains(key)) return;
  while (used_ + bytes > capacity_) evict_one();
  // Insert just behind the hand so a full sweep passes everything else first.
  const std::uint32_t pos = ring_.empty() ? kNil : hand_;
  const std::uint32_t slot = ring_.alloc({key, bytes, kNil, kNil, false});
  ring_.insert_before(slot, pos);
  if (ring_.size() == 1) hand_ = slot;
  index_.insert(key, slot);
  used_ += bytes;
  stats_.record_admission(bytes);
}

bool ClockCache::erase(ObjectKey key) {
  const std::uint32_t slot = index_.find(key);
  if (slot == kNil) return false;
  if (hand_ == slot) advance_hand();
  used_ -= ring_[slot].bytes;
  ring_.remove(slot);
  if (ring_.empty()) hand_ = kNil;  // the hand had wrapped onto the victim
  index_.erase(key);
  return true;
}

bool ClockCache::contains(ObjectKey key) const { return index_.contains(key); }

void ClockCache::clear() {
  ring_.clear();
  index_.clear();
  hand_ = kNil;
  used_ = 0;
}

void ClockCache::save_state(util::ByteWriter& w) const {
  w.u64(capacity_);
  stats_.save_state(w);
  w.u64(ring_.size());
  std::uint64_t hand_offset = static_cast<std::uint64_t>(-1);
  std::uint64_t pos = 0;
  for (std::uint32_t s = ring_.head(); s != kNil; s = ring_[s].next, ++pos) {
    w.u64(ring_[s].key);
    w.u64(ring_[s].bytes);
    w.u8(ring_[s].referenced ? 1 : 0);
    if (s == hand_) hand_offset = pos;
  }
  w.u64(hand_offset);
}

void ClockCache::restore_state(util::ByteReader& r) {
  clear();
  capacity_ = r.u64();
  stats_.restore_state(r);
  const std::uint64_t n = r.u64();
  r.need(n * 17, "clock entries");
  ring_.reserve(n);
  index_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectKey key = r.u64();
    const std::uint64_t bytes = r.u64();
    const bool referenced = r.u8() != 0;
    const std::uint32_t slot = ring_.alloc({key, bytes, kNil, kNil, referenced});
    ring_.push_back(slot);
    index_.insert(key, slot);
    used_ += bytes;
  }
  const std::uint64_t hand_offset = r.u64();
  if (hand_offset == static_cast<std::uint64_t>(-1)) {
    hand_ = kNil;
  } else {
    CDN_EXPECT(hand_offset < n, "clock hand offset out of range");
    hand_ = ring_.head();
    for (std::uint64_t i = 0; i < hand_offset; ++i) hand_ = ring_[hand_].next;
  }
  CDN_EXPECT(used_ <= capacity_, "restored cache exceeds its capacity");
}

void ClockCache::evict_one() {
  CDN_DCHECK(!ring_.empty(), "eviction from empty cache");
  if (hand_ == kNil) hand_ = ring_.head();
  while (ring_[hand_].referenced) {
    ring_[hand_].referenced = false;
    advance_hand();
  }
  const std::uint32_t victim = hand_;
  advance_hand();
  if (hand_ == victim) hand_ = kNil;  // last element is going away
  used_ -= ring_[victim].bytes;
  index_.erase(ring_[victim].key);
  stats_.record_eviction(ring_[victim].bytes);
  ring_.remove(victim);
  if (hand_ == kNil && !ring_.empty()) hand_ = ring_.head();
}

}  // namespace cdn::cache
