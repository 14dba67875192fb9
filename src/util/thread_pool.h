// Minimal work-stealing-free thread pool plus parallel loops.
//
// Uniform-cost loops (the full candidate sweep of the hybrid greedy, the
// simulator shards) use a static partition over a fixed pool — the OpenMP
// `parallel for schedule(static)` idiom.  Loops whose per-index cost varies
// widely (an incremental engine's invalidation batch mixes O(M) what-if
// re-evaluations with cheap single-term repairs) use parallel_for_dynamic,
// the `schedule(dynamic, chunk)` idiom: fixed chunks claimed from one
// atomic counter.  The loop drivers are templates: the body is invoked
// directly (inlinable), with type erasure paid once per submitted task —
// never per index.

#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace cdn::util {

/// Fixed-size thread pool executing void() tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Process-wide shared pool (lazily constructed, hardware concurrency).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::queue<std::function<void()>> tasks_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

namespace detail {

/// Static partition of [begin, end) into at most thread_count() chunks of at
/// least `grain` indices; chunk_body(lo, hi) runs on the pool (or inline
/// when the range is small or the pool has a single worker).  Blocks until
/// every chunk has finished, so capturing chunk_body by reference is safe.
template <typename ChunkBody>
void parallel_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                     std::size_t grain, const ChunkBody& chunk_body) {
  static_assert(
      std::is_invocable_v<const ChunkBody&, std::size_t, std::size_t>,
      "chunk body must be callable as body(lo, hi)");
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.thread_count();
  if (workers <= 1 || n <= grain) {
    chunk_body(begin, end);
    return;
  }
  const std::size_t chunks = std::min(workers, (n + grain - 1) / grain);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    pool.submit([lo, hi, &chunk_body] { chunk_body(lo, hi); });
  }
  pool.wait_idle();
}

}  // namespace detail

/// Runs body(i) for i in [begin, end) across the pool with a static
/// partition; blocks until complete.  Falls back to the calling thread when
/// the range is small or the pool has a single worker.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const Body& body, std::size_t grain = 1) {
  static_assert(std::is_invocable_v<const Body&, std::size_t>,
                "loop body must be callable as body(i)");
  detail::parallel_chunks(pool, begin, end, grain,
                          [&body](std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) body(i);
                          });
}

/// parallel_for over the shared pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  std::size_t grain = 1) {
  parallel_for(ThreadPool::shared(), begin, end, body, grain);
}

/// Chunked variant: body(lo, hi) receives one contiguous sub-range per
/// chunk, letting the caller hoist per-chunk state (accumulators, scratch
/// buffers) out of the index loop.
template <typename Body>
void parallel_for_chunked(ThreadPool& pool, std::size_t begin,
                          std::size_t end, const Body& body,
                          std::size_t grain = 1) {
  detail::parallel_chunks(pool, begin, end, grain, body);
}

/// parallel_for_chunked over the shared pool.
template <typename Body>
void parallel_for_chunked(std::size_t begin, std::size_t end, const Body& body,
                          std::size_t grain = 1) {
  detail::parallel_chunks(ThreadPool::shared(), begin, end, grain, body);
}

/// Runs body(i) for i in [begin, end) with dynamic scheduling: the range is
/// cut into fixed chunks of `chunk` indices that at most thread_count()
/// tasks claim in turn from a shared atomic counter, so a run of expensive
/// indices spreads over the pool instead of landing on one static slice.
/// Which worker runs which index is unspecified; the body must not depend
/// on it.  Blocks until complete; runs inline when there is one chunk or a
/// single worker.
template <typename Body>
void parallel_for_dynamic(ThreadPool& pool, std::size_t begin,
                          std::size_t end, std::size_t chunk,
                          const Body& body) {
  static_assert(std::is_invocable_v<const Body&, std::size_t>,
                "loop body must be callable as body(i)");
  if (begin >= end) return;
  if (chunk == 0) chunk = 1;
  const std::size_t chunks = (end - begin + chunk - 1) / chunk;
  std::atomic<std::size_t> next{0};
  const auto drain = [&](std::size_t, std::size_t) {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t lo = begin + c * chunk;
      const std::size_t hi = std::min(end, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }
  };
  // One drain task per worker (at most one per chunk); the pool's
  // submit/wait_idle hand-off orders every body write before the return.
  detail::parallel_chunks(pool, 0, std::min(chunks, pool.thread_count()), 1,
                          drain);
}

/// parallel_for_dynamic over the shared pool.
template <typename Body>
void parallel_for_dynamic(std::size_t begin, std::size_t end,
                          std::size_t chunk, const Body& body) {
  parallel_for_dynamic(ThreadPool::shared(), begin, end, chunk, body);
}

}  // namespace cdn::util
