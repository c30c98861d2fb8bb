#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "src/util/thread_pool.h"

namespace nxgraph {
namespace {

TEST(WaitGroupTest, WaitReturnsAfterAllDone) {
  WaitGroup wg;
  wg.Add(3);
  std::atomic<int> done{0};
  std::thread t([&] {
    for (int i = 0; i < 3; ++i) {
      done.fetch_add(1);
      wg.Done();
    }
  });
  wg.Wait();
  EXPECT_EQ(done.load(), 3);
  t.join();
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  WaitGroup wg;
  wg.Add(100);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  int x = 0;
  pool.Submit([&] { x = 42; });
  EXPECT_EQ(x, 42);  // inline: done immediately
}

class ParallelForTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), 7, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ParallelForTest, SumMatchesSequential) {
  ThreadPool pool(GetParam());
  std::atomic<long long> sum{0};
  pool.ParallelFor(10, 5000, 64, [&](size_t b, size_t e) {
    long long local = 0;
    for (size_t i = b; i < e; ++i) local += static_cast<long long>(i);
    sum.fetch_add(local);
  });
  long long expected = 0;
  for (size_t i = 10; i < 5000; ++i) expected += static_cast<long long>(i);
  EXPECT_EQ(sum.load(), expected);
}

TEST_P(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(GetParam());
  bool called = false;
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_P(ParallelForTest, SingleElement) {
  ThreadPool pool(GetParam());
  std::atomic<int> calls{0};
  pool.ParallelFor(3, 4, 10, [&](size_t b, size_t e) {
    EXPECT_EQ(b, 3u);
    EXPECT_EQ(e, 4u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

// With workers, chunk k is [begin + k*grain, begin + (k+1)*grain) clipped
// to the end, whichever thread claims it; without workers the whole range
// is chunk 0. Callers key per-chunk results on k = (b - begin) / grain.
TEST_P(ParallelForTest, ChunksHaveFixedBoundaries) {
  ThreadPool pool(GetParam());
  const size_t begin = 5, end = 1000, grain = 37;
  const size_t chunks = (end - begin + grain - 1) / grain;
  std::vector<std::atomic<size_t>> ends(chunks);
  pool.ParallelFor(begin, end, grain, [&](size_t b, size_t e) {
    ASSERT_EQ((b - begin) % grain, 0u);
    const size_t k = (b - begin) / grain;
    ASSERT_LT(k, chunks);
    EXPECT_EQ(ends[k].exchange(e), 0u) << "chunk " << k << " ran twice";
  });
  for (size_t k = 0; k < chunks; ++k) {
    const size_t want = GetParam() == 0
                            ? (k == 0 ? end : 0)
                            : std::min(begin + (k + 1) * grain, end);
    EXPECT_EQ(ends[k].load(), want) << "chunk " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForTest,
                         ::testing::Values(0, 1, 2, 4));

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlock) {
  ThreadPool pool(2);
  WaitGroup wg;
  wg.Add(10);
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] {
      // Tasks submitting more tasks is the callback-scheduler pattern.
      wg.Done();
    });
  }
  wg.Wait();
}

TEST(ThreadPoolTest, StressManySmallParallelFors) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> total{0};
    pool.ParallelFor(0, 257, 16, [&](size_t b, size_t e) {
      total.fetch_add(e - b);
    });
    ASSERT_EQ(total.load(), 257u);
  }
}

}  // namespace
}  // namespace nxgraph
