#pragma once
// Work-stealing-free thread pool for embarrassingly parallel sweeps.
//
// The sweep workloads of this toolkit (vector ranking, W/L bisection,
// worst-vector search) are loops over independent simulator runs whose
// per-item cost dwarfs any scheduling overhead, so the pool is
// deliberately simple: persistent workers pull loop indices from a shared
// atomic counter -- no task queues, no stealing, no futures.  Determinism
// is guaranteed by construction: `parallel_for(n, fn)` hands each index
// to exactly one invocation of `fn`, and callers write results into
// index-addressed slots, so the output is bit-identical to the serial
// loop regardless of how indices interleave across threads.
//
// Thread count resolution order: explicit constructor argument, then the
// MTCMOS_THREADS environment variable, then hardware_concurrency().  A
// pool of 1 thread spawns no workers at all and runs everything inline
// (the serial fallback), which keeps single-threaded builds and
// debugging sessions free of threading machinery.
//
// The first exception thrown by any iteration is captured and rethrown
// on the calling thread after the loop drains; once an exception is
// captured the job is cancelled, so indices not yet started are skipped
// (iterations already in flight on other workers run to completion).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mtcmos::util {

class ThreadPool {
 public:
  /// `threads` <= 0 picks default_thread_count().  A 1-thread pool runs
  /// every parallel_for inline with no worker threads.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return threads_; }

  /// Invoke fn(i) for every i in [0, n), distributed over the pool.  The
  /// calling thread participates.  Blocks until the job drains; rethrows
  /// the first exception any iteration threw, and skips indices not yet
  /// started once an exception has been captured.  Concurrent calls
  /// from different threads serialize; calling parallel_for on the same
  /// pool from inside fn deadlocks (use a separate pool for nesting).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// parallel_for that collects fn(i) into an index-addressed vector, so
  /// the result order is independent of thread scheduling.
  template <typename Fn>
  auto parallel_map(std::size_t n, Fn&& fn) -> std::vector<decltype(fn(std::size_t{0}))> {
    std::vector<decltype(fn(std::size_t{0}))> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// MTCMOS_THREADS if set to a positive integer, else
  /// hardware_concurrency() (else 1).
  static int default_thread_count();

  /// Process-wide pool sized by default_thread_count(), created on first
  /// use.  Sweep entry points use this when no pool is passed explicitly.
  static ThreadPool& global();

 private:
  void worker_loop();
  void run_current_job();

  int threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex submit_mutex_;  // serializes whole parallel_for jobs
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;   // bumped per job; wakes the workers
  int workers_active_ = 0;         // workers still inside the current job

  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_n_ = 0;
  std::atomic<std::size_t> next_index_{0};
  std::atomic<bool> cancel_requested_{false};
  std::exception_ptr first_error_;
};

/// Resolve an optional pool argument: `pool` itself, or the global pool.
inline ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : ThreadPool::global();
}

}  // namespace mtcmos::util
