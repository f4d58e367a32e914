#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mtcmos::util {
namespace {

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, FewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelMapIsIndexAddressed) {
  ThreadPool pool(4);
  const auto out = pool.parallel_map(1000, [](std::size_t i) { return 3.0 * static_cast<double>(i); });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3.0 * static_cast<double>(i));
}

TEST(ThreadPoolTest, ExceptionPropagatesFromWorker) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionPropagatesSerially) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::invalid_argument("bad");
                                 }),
               std::invalid_argument);
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(8, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, ExceptionCancelsRemainingIterations) {
  // Once index 0 throws, indices that have not yet started must be
  // skipped.  Each non-throwing iteration sleeps, so the job would take
  // many seconds if the pool kept draining all 10000 indices.
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.parallel_for(10000,
                        [&](std::size_t i) {
                          if (i == 0) throw std::runtime_error("first");
                          executed.fetch_add(1);
                          std::this_thread::sleep_for(std::chrono::milliseconds(1));
                        }),
      std::runtime_error);
  // A few in-flight iterations may finish after the throw; anything close
  // to the full range means cancellation did not happen.
  EXPECT_LT(executed.load(), 100);
}

TEST(ThreadPoolTest, BackToBackJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 64);
  }
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvVar) {
  ASSERT_EQ(setenv("MTCMOS_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3);
  ASSERT_EQ(setenv("MTCMOS_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);  // falls back to hardware
  ASSERT_EQ(setenv("MTCMOS_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);  // non-positive ignored
  ASSERT_EQ(unsetenv("MTCMOS_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

}  // namespace
}  // namespace mtcmos::util
