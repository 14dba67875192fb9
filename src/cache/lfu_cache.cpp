#include "src/cache/lfu_cache.h"

#include "src/util/error.h"

namespace cdn::cache {

LfuCache::LfuCache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

bool LfuCache::lookup(ObjectKey key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  bump(it);
  return true;
}

void LfuCache::bump(
    const std::unordered_map<ObjectKey, Locator>::iterator& it) {
  Locator& loc = it->second;
  Entry entry = *loc.entry;
  loc.bucket->second.erase(loc.entry);
  const bool bucket_empty = loc.bucket->second.empty();
  auto bucket_it = loc.bucket;
  ++entry.freq;
  auto next = buckets_.find(entry.freq);
  if (next == buckets_.end()) {
    next = buckets_.emplace(entry.freq, Bucket{}).first;
  }
  if (bucket_empty) buckets_.erase(bucket_it);
  next->second.push_front(entry);
  loc.bucket = next;
  loc.entry = next->second.begin();
}

void LfuCache::admit(ObjectKey key, std::uint64_t bytes) {
  if (bytes > capacity_) return;
  if (index_.contains(key)) return;
  while (used_ + bytes > capacity_) evict_one();
  auto bucket = buckets_.find(1);
  if (bucket == buckets_.end()) bucket = buckets_.emplace(1, Bucket{}).first;
  bucket->second.push_front({key, bytes, 1});
  index_.emplace(key, Locator{bucket, bucket->second.begin()});
  used_ += bytes;
  stats_.record_admission(bytes);
}

bool LfuCache::erase(ObjectKey key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  Locator& loc = it->second;
  used_ -= loc.entry->bytes;
  loc.bucket->second.erase(loc.entry);
  if (loc.bucket->second.empty()) buckets_.erase(loc.bucket);
  index_.erase(it);
  return true;
}

bool LfuCache::contains(ObjectKey key) const { return index_.contains(key); }

void LfuCache::clear() {
  buckets_.clear();
  index_.clear();
  used_ = 0;
}

std::uint64_t LfuCache::frequency(ObjectKey key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.entry->freq;
}

void LfuCache::save_state(util::ByteWriter& w) const {
  w.u64(capacity_);
  stats_.save_state(w);
  w.u64(buckets_.size());
  for (const auto& [freq, bucket] : buckets_) {  // ascending frequency
    w.u64(freq);
    w.u64(bucket.size());
    for (const Entry& e : bucket) {  // most recently touched first
      w.u64(e.key);
      w.u64(e.bytes);
    }
  }
}

void LfuCache::restore_state(util::ByteReader& r) {
  clear();
  capacity_ = r.u64();
  stats_.restore_state(r);
  const std::uint64_t bucket_count = r.u64();
  for (std::uint64_t b = 0; b < bucket_count; ++b) {
    const std::uint64_t freq = r.u64();
    const std::uint64_t n = r.u64();
    r.need(n * 16, "lfu bucket entries");
    const auto bucket = buckets_.emplace(freq, Bucket{}).first;
    for (std::uint64_t i = 0; i < n; ++i) {
      const ObjectKey key = r.u64();
      const std::uint64_t bytes = r.u64();
      bucket->second.push_back({key, bytes, freq});
      index_.emplace(key,
                     Locator{bucket, std::prev(bucket->second.end())});
      used_ += bytes;
    }
  }
  CDN_EXPECT(used_ <= capacity_, "restored cache exceeds its capacity");
}

void LfuCache::evict_one() {
  CDN_DCHECK(!buckets_.empty(), "eviction from empty cache");
  auto lowest = buckets_.begin();
  Bucket& bucket = lowest->second;
  // Back of the bucket = least recently touched at this frequency.
  const Entry& victim = bucket.back();
  used_ -= victim.bytes;
  index_.erase(victim.key);
  stats_.record_eviction(victim.bytes);
  bucket.pop_back();
  if (bucket.empty()) buckets_.erase(lowest);
}

}  // namespace cdn::cache
