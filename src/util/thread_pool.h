// Fixed-size worker pool with chunked parallel-for, the substrate for the
// engines' fine-grained destination-chunk parallelism.
#ifndef NXGRAPH_UTIL_THREAD_POOL_H_
#define NXGRAPH_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/macros.h"

namespace nxgraph {

/// \brief Counts outstanding tasks; lets a caller block until all complete.
class WaitGroup {
 public:
  /// Registers `n` tasks that must later call Done().
  void Add(int n);
  /// Marks one task complete; wakes waiters when the count reaches zero.
  void Done();
  /// Blocks until the outstanding count reaches zero.
  void Wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t count_ = 0;
};

/// \brief Fixed pool of worker threads consuming a FIFO task queue.
///
/// `num_threads == 0` is allowed and means "run everything inline on the
/// submitting thread" — useful for tests and the single-thread rows of the
/// paper's thread-sweep experiments.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  NX_DISALLOW_COPY(ThreadPool);

  /// Enqueues a task. Tasks must not throw.
  void Submit(std::function<void()> fn);

  /// Runs `fn(begin, end)` over chunked subranges of [begin, end) on all
  /// workers plus the calling thread; returns when the range is exhausted.
  /// `grain` is the chunk size (>=1); chunks are claimed dynamically, which
  /// load-balances skewed work such as power-law destination ranges. The
  /// boundaries are fixed: chunk k is [begin + k*grain, begin + (k+1)*grain)
  /// clipped to `end`, except that a pool without workers runs the whole
  /// range as chunk 0. Either way k = (chunk begin - begin) / grain is
  /// unique and below ceil((end - begin) / grain), so it can key per-chunk
  /// partial results, and two calls with the same arguments split alike.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

}  // namespace nxgraph

#endif  // NXGRAPH_UTIL_THREAD_POOL_H_
