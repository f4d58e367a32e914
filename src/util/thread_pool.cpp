#include "util/thread_pool.hpp"

#include <cstdlib>
#include <string>

namespace mtcmos::util {

int ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("MTCMOS_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool(int threads)
    : threads_(threads > 0 ? threads : default_thread_count()) {
  // The calling thread is worker 0; spawn the other threads_ - 1.
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      ++workers_active_;
    }
    run_current_job();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --workers_active_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::run_current_job() {
  while (true) {
    if (cancel_requested_.load(std::memory_order_relaxed)) return;
    const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_n_) return;
    try {
      (*job_fn_)(i);
    } catch (...) {
      cancel_requested_.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One job at a time: concurrent submitters queue up here.  (Nested
  // submission from inside fn would self-deadlock; see the header.)
  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  // A worker that woke late for an already-drained job may still be
  // between its generation check and its empty run; let it retire before
  // publishing new job fields, so workers never read them mid-write.
  done_cv_.wait(lock, [&] { return workers_active_ == 0; });
  job_fn_ = &fn;
  job_n_ = n;
  next_index_.store(0, std::memory_order_relaxed);
  cancel_requested_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  ++generation_;
  lock.unlock();
  start_cv_.notify_all();
  run_current_job();  // the calling thread works too
  lock.lock();
  done_cv_.wait(lock, [&] { return workers_active_ == 0; });
  job_fn_ = nullptr;
  job_n_ = 0;
  const std::exception_ptr error = first_error_;
  first_error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace mtcmos::util
