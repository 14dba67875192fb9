// Byte-capacity object cache interface.
//
// Every CDN server in the simulator runs one cache over the portion of its
// storage not used by replicas.  The paper evaluates plain LRU; FIFO, LFU,
// CLOCK and delayed-LRU (the comparator of Karlsson & Mahalingam [15]) are
// provided for ablations and extensions.

#pragma once

#include <cstdint>

#include "src/cache/cache_stats.h"

namespace cdn::cache {

using ObjectKey = std::uint64_t;

/// Common interface of all byte-capacity replacement policies.
///
/// Invariants every implementation maintains:
///   * used_bytes() <= capacity_bytes() at all times;
///   * an object larger than the capacity is never admitted;
///   * admit() of a resident object is a no-op (sizes are immutable).
class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  /// Looks up `key`; on a hit applies the policy's reference semantics
  /// (e.g. LRU moves the entry to the most-recent position).
  virtual bool lookup(ObjectKey key) = 0;

  /// Inserts `key` of `bytes` size, evicting per policy until it fits.
  /// No-op if already resident or if bytes > capacity.
  virtual void admit(ObjectKey key, std::uint64_t bytes) = 0;

  /// Removes `key` if resident; returns whether it was.
  virtual bool erase(ObjectKey key) = 0;

  /// Residency test without touching recency/frequency state.
  virtual bool contains(ObjectKey key) const = 0;

  virtual void clear() = 0;

  virtual std::uint64_t capacity_bytes() const = 0;
  virtual std::uint64_t used_bytes() const = 0;
  /// Number of resident objects.
  virtual std::size_t object_count() const = 0;

  /// Full access path: lookup, and on a miss admit the object.
  /// Returns true on hit.  Updates the embedded statistics either way.
  bool access(ObjectKey key, std::uint64_t bytes) {
    if (lookup(key)) {
      stats_.record_hit(bytes);
      return true;
    }
    stats_.record_miss(bytes);
    admit(key, bytes);
    return false;
  }

  /// access() without the miss-side admission, for when the object cannot
  /// be fetched (every remote copy is down): a hit still serves and both
  /// outcomes still count in the statistics, but nothing enters the cache.
  bool access_no_admit(ObjectKey key, std::uint64_t bytes) {
    if (lookup(key)) {
      stats_.record_hit(bytes);
      return true;
    }
    stats_.record_miss(bytes);
    return false;
  }

  /// Statistics of all accesses since construction or reset_stats().
  /// Virtual so wrapper policies (delayed-LRU) can fold in the churn their
  /// inner cache recorded.
  virtual const CacheStats& stats() const noexcept { return stats_; }
  virtual void reset_stats() noexcept { stats_.reset(); }

  /// Checkpointing: serialises the full replacement state (residency,
  /// recency/frequency order, reference bits, ghost directories) plus the
  /// embedded statistics, so a restored cache behaves byte-identically to
  /// one that lived through every access.  restore_state() expects a cache
  /// constructed with the same policy; capacity travels with the state.
  virtual void save_state(util::ByteWriter& w) const = 0;
  virtual void restore_state(util::ByteReader& r) = 0;

 protected:
  CacheStats stats_;
};

}  // namespace cdn::cache
