// Fixed-size worker pool used to parallelize exact graph matching during the
// post-processing phase and to search corpus shards concurrently (paper §VI
// and §VIII-A3, which uses a C++17 thread pool for the same purpose).
// Re-implemented from scratch.
#ifndef KOIOS_UTIL_THREAD_POOL_H_
#define KOIOS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace koios::util {

/// A simple work-queue thread pool.
///
/// Tasks are `std::function<void()>`; `Submit` returns a future for the
/// task's result. `WaitIdle` blocks until the queue drains and all workers
/// are parked, which the post-processor uses as a phase barrier.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (minimum 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a callable; returns a future of its result.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
      ++pending_;
    }
    wake_workers_.notify_one();
    return future;
  }

  /// Block until every submitted task has finished executing.
  void WaitIdle();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_workers_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t pending_ = 0;  // queued + running tasks
  bool shutting_down_ = false;
};

}  // namespace koios::util

#endif  // KOIOS_UTIL_THREAD_POOL_H_
