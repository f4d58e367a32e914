// The parallel sweep engine's core guarantee: for any thread count, every
// sweep entry point produces results bit-identical to the serial path.
// Parallelism only distributes independent simulator runs across index-
// addressed slots; reductions and sorts stay serial, so there is no
// floating-point reassociation to drift.  These tests run the 3-bit adder
// workflows on 1 thread and on several threads and require exact
// (bit-level) equality.  Built with -fsanitize=thread (MTCMOS_SANITIZE)
// they also check the shared-simulator concurrency claim: ctest -L tsan.

#include <gtest/gtest.h>

#include <vector>

#include "circuits/generators.hpp"
#include "core/vbs.hpp"
#include "models/technology.hpp"
#include "sizing/sizing.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mtcmos::sizing {
namespace {

std::vector<std::string> adder_outputs(const circuits::RippleAdder& adder) {
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  return outs;
}

// Every 8th pair of the 4096-pair space: enough coverage to exercise the
// pool while keeping the tsan build fast.
std::vector<VectorPair> adder_pairs() {
  const auto all = all_vector_pairs(6);
  std::vector<VectorPair> subset;
  for (std::size_t i = 0; i < all.size(); i += 8) subset.push_back(all[i]);
  return subset;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ParallelDeterminismTest()
      : adder_(circuits::make_ripple_adder(tech07(), 3)),
        eval_(adder_.netlist, adder_outputs(adder_)),
        serial_(1),
        parallel_(4) {}

  circuits::RippleAdder adder_;
  VbsBackend eval_;
  util::ThreadPool serial_;
  util::ThreadPool parallel_;
};

TEST_F(ParallelDeterminismTest, RankVectorsBitIdentical) {
  const auto pairs = adder_pairs();
  const auto ranked_serial = rank_vectors(eval_, pairs, 8.0, {.pool = &serial_});
  const auto ranked_parallel = rank_vectors(eval_, pairs, 8.0, {.pool = &parallel_});
  ASSERT_EQ(ranked_serial.size(), ranked_parallel.size());
  for (std::size_t i = 0; i < ranked_serial.size(); ++i) {
    EXPECT_EQ(ranked_serial[i].pair.v0, ranked_parallel[i].pair.v0) << "rank " << i;
    EXPECT_EQ(ranked_serial[i].pair.v1, ranked_parallel[i].pair.v1) << "rank " << i;
    EXPECT_EQ(ranked_serial[i].delay_cmos, ranked_parallel[i].delay_cmos) << "rank " << i;
    EXPECT_EQ(ranked_serial[i].delay_mtcmos, ranked_parallel[i].delay_mtcmos) << "rank " << i;
    EXPECT_EQ(ranked_serial[i].degradation_pct, ranked_parallel[i].degradation_pct)
        << "rank " << i;
  }
}

TEST_F(ParallelDeterminismTest, SizeForDegradationBitIdentical) {
  std::vector<VectorPair> stress;
  const auto pairs = adder_pairs();
  for (std::size_t i = 0; i < pairs.size(); i += 20) stress.push_back(pairs[i]);
  const SizingBounds bounds{1.0, 2000.0, 0.5};
  const SizingResult a = size_for_degradation(eval_, stress, 5.0, bounds, {.pool = &serial_});
  const SizingResult b = size_for_degradation(eval_, stress, 5.0, bounds, {.pool = &parallel_});
  EXPECT_EQ(a.wl, b.wl);
  EXPECT_EQ(a.degradation_pct, b.degradation_pct);
  EXPECT_EQ(a.binding_vector.v0, b.binding_vector.v0);
  EXPECT_EQ(a.binding_vector.v1, b.binding_vector.v1);
}

TEST_F(ParallelDeterminismTest, SearchWorstVectorBitIdentical) {
  Rng rng_a(42), rng_b(42);
  const VectorDelay a = search_worst_vector(eval_, 8.0, 40, rng_a, {.pool = &serial_});
  const VectorDelay b = search_worst_vector(eval_, 8.0, 40, rng_b, {.pool = &parallel_});
  EXPECT_EQ(a.pair.v0, b.pair.v0);
  EXPECT_EQ(a.pair.v1, b.pair.v1);
  EXPECT_EQ(a.delay_cmos, b.delay_cmos);
  EXPECT_EQ(a.delay_mtcmos, b.delay_mtcmos);
  EXPECT_EQ(a.degradation_pct, b.degradation_pct);
}

TEST_F(ParallelDeterminismTest, ScreenVectorsBitIdentical) {
  const auto pairs = adder_pairs();
  const auto a = screen_vectors(adder_.netlist, pairs, 25, {.pool = &serial_});
  const auto b = screen_vectors(adder_.netlist, pairs, 25, {.pool = &parallel_});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].v0, b[i].v0) << "kept " << i;
    EXPECT_EQ(a[i].v1, b[i].v1) << "kept " << i;
  }
}

// The memoized CMOS baseline must return the same value hot and cold, and
// a shared simulator hammered from many threads at the same W/L must not
// race (the tsan build verifies the absence of data races here).
TEST_F(ParallelDeterminismTest, SharedSimulatorConcurrentRuns) {
  const auto pairs = adder_pairs();
  std::vector<double> cold(pairs.size());
  parallel_.parallel_for(pairs.size(), [&](std::size_t i) {
    cold[i] = eval_.degradation_pct(pairs[i], 8.0);
  });
  std::vector<double> hot(pairs.size());
  parallel_.parallel_for(pairs.size(), [&](std::size_t i) {
    hot[i] = eval_.degradation_pct(pairs[i], 8.0);
  });
  EXPECT_EQ(cold, hot);
}

}  // namespace
}  // namespace mtcmos::sizing
