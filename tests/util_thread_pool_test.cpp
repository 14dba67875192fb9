// Unit tests for the thread pool and parallel_for.

#include <gtest/gtest.h>

#include "src/util/error.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "src/util/thread_pool.h"

namespace {

using cdn::util::parallel_for;
using cdn::util::ThreadPool;

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ThreadCountMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPoolTest, RejectsNullTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), cdn::PreconditionError);
}

TEST(ParallelForTest, CoversExactRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  parallel_for(pool, 0, touched.size(),
               [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, NonZeroBeginOffset) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  parallel_for(pool, 10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10 + ... + 19
}

TEST(ParallelForTest, MatchesSequentialReduction) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<double> data(n);
  std::iota(data.begin(), data.end(), 0.0);
  std::vector<double> out(n);
  parallel_for(pool, 0, n, [&](std::size_t i) { out[i] = data[i] * 2.0; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(out[i], 2.0 * data[i]);
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(4);
  std::vector<int> touched(8, 0);
  parallel_for(pool, 0, touched.size(),
               [&](std::size_t i) { touched[i] = 1; },
               /*grain=*/100);
  for (int t : touched) EXPECT_EQ(t, 1);
}

TEST(ParallelForTest, SharedPoolOverloadWorks) {
  std::vector<std::atomic<int>> touched(64);
  parallel_for(0, touched.size(),
               [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForChunkedTest, ChunksTileTheRangeExactly) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(997);  // prime: uneven last chunk
  std::atomic<int> chunks{0};
  cdn::util::parallel_for_chunked(
      pool, 0, touched.size(), [&](std::size_t lo, std::size_t hi) {
        EXPECT_LT(lo, hi);
        chunks.fetch_add(1);
        for (std::size_t i = lo; i < hi; ++i) touched[i].fetch_add(1);
      });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  EXPECT_GE(chunks.load(), 1);
  EXPECT_LE(chunks.load(), 4);
}

TEST(ParallelForChunkedTest, GrainBoundsChunkCount) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  cdn::util::parallel_for_chunked(
      pool, 0, 100,
      [&](std::size_t, std::size_t) { chunks.fetch_add(1); },
      /*grain=*/50);
  // 100 indices at grain 50 permit at most two chunks.
  EXPECT_LE(chunks.load(), 2);
}

TEST(ParallelForChunkedTest, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  cdn::util::parallel_for_chunked(pool, 0, 10,
                                  [&](std::size_t lo, std::size_t hi) {
                                    for (std::size_t i = lo; i < hi; ++i) {
                                      order.push_back(static_cast<int>(i));
                                    }
                                  });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelForDynamicTest, CoversExactRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1009);  // prime: uneven last chunk
  cdn::util::parallel_for_dynamic(pool, 3, touched.size(), 32,
                                  [&](std::size_t i) {
                                    touched[i].fetch_add(1);
                                  });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), i < 3 ? 0 : 1) << "index " << i;
  }
}

TEST(ParallelForDynamicTest, SpreadsAnExpensivePrefixOverWorkers) {
  // The first chunks are slow; a static split would hand all of them to one
  // worker, dynamic chunks let the others pick them up.
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> prefix_threads;
  cdn::util::parallel_for_dynamic(pool, 0, 256, 8, [&](std::size_t i) {
    if (i < 64) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const std::lock_guard<std::mutex> lock(mu);
      prefix_threads.insert(std::this_thread::get_id());
    }
  });
  EXPECT_GE(prefix_threads.size(), 2u);
}

TEST(ParallelForDynamicTest, SingleChunkAndEmptyRangeRunInline) {
  ThreadPool pool(4);
  std::vector<std::size_t> order;  // unsynchronised: must run inline
  cdn::util::parallel_for_dynamic(pool, 0, 10, 16, [&](std::size_t i) {
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  cdn::util::parallel_for_dynamic(pool, 5, 5, 16,
                                  [&](std::size_t) { ADD_FAILURE(); });
}

TEST(ParallelForTest, NestedSubmissionDoesNotDeadlock) {
  // parallel_for from within a pool task must not deadlock the shared pool
  // (tasks submit to the same queue but wait_idle is only called outside).
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 4, [&](std::size_t) {
    for (int i = 0; i < 8; ++i) counter.fetch_add(1);
  });
  EXPECT_EQ(counter.load(), 32);
}

}  // namespace
