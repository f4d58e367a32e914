// The sweep scheduler: a 4-thread rank against the serial one (the
// contract matrix, contract_test.cpp, checks every entry point on every
// pool size), the prefix of rows a failing pass leaves, and several
// passes run as one pool job.
// Labeled tsan: ctest -L tsan runs them on the thread-sanitized build.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "circuits/generators.hpp"
#include "models/technology.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/result_sink.hpp"
#include "sizing/sizing.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/thread_pool.hpp"
#include "contract.hpp"
#include "scratch_dir.hpp"

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
        serial_(1) {}

  circuits::RippleAdder adder_;
  VbsBackend eval_;
  util::ThreadPool serial_;
};

TEST_F(ParallelDeterminismTest, RankVectorsBitIdentical) {
  const auto pairs = adder_pairs();
  util::ThreadPool parallel(4);
  EXPECT_TRUE(test::same(rank_vectors(eval_, pairs, 8.0, {.pool = &parallel}),
                         rank_vectors(eval_, pairs, 8.0, {.pool = &serial_})));
}

// --- The emission contract of the sweep scheduler -----------------------
//
// Rows are emitted in input order while the pass still computes, always
// on the thread that called the entry point; a pass that throws leaves a
// prefix of the stream behind.

/// Records every emitted row bit-exactly, with the thread that emitted it.
class RecordingSink final : public ResultSink {
 public:
  void on_delay(const std::string& /*key*/, const VectorDelay& row) override {
    threads.push_back(std::this_thread::get_id());
    rows.push_back(test::lines(row).front());
  }
  void on_value(const std::string& /*key*/, double value) override {
    threads.push_back(std::this_thread::get_id());
    rows.push_back(test::hex(value));
  }

  std::vector<std::string> rows;
  std::vector<std::thread::id> threads;
};

class EmissionContractTest : public ParallelDeterminismTest {
 protected:
  static constexpr std::size_t kBatch = 16;  // 32 chunks over the 512 pairs

  void SetUp() override {
    dir_ = test::scratch_dir("emission");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    faultinject::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  /// The serial, fault-free row stream.
  std::vector<std::string> reference(const std::vector<VectorPair>& pairs) {
    RecordingSink sink;
    EvalSession session;
    session.pool = &serial_;
    session.sink = &sink;
    session.batch = kBatch;
    rank_vectors_stream(eval_, pairs, 8.0, session);
    return sink.rows;
  }

  static void expect_caller_only(const RecordingSink& sink) {
    for (const std::thread::id id : sink.threads) ASSERT_EQ(id, std::this_thread::get_id());
  }

  std::filesystem::path dir_;
};

/// Records rows like RecordingSink, but throws an injected failure at
/// row `fail_at` instead of recording it.
class FailingSink final : public ResultSink {
 public:
  explicit FailingSink(std::size_t fail_at) : fail_at_(fail_at) {}

  void on_delay(const std::string& key, const VectorDelay& row) override {
    if (recorded.rows.size() == fail_at_) {
      throw NumericalError({FailureCode::kInjected, "test::FailingSink",
                            "row " + std::to_string(fail_at_)});
    }
    recorded.on_delay(key, row);
  }
  void on_value(const std::string& key, double value) override { recorded.on_value(key, value); }

  RecordingSink recorded;

 private:
  std::size_t fail_at_;
};

TEST_F(EmissionContractTest, NonIsolatedFailureEmitsThePrefixAndJournalsEveryItem) {
  const auto pairs = adder_pairs();
  const std::vector<std::string> expected = reference(pairs);
  constexpr std::size_t kFailing = 37;
  for (const int threads : {1, 2, 4}) {
    util::ThreadPool pool(threads);
    Checkpoint ckpt;
    ckpt.open((dir_ / ("t" + std::to_string(threads) + ".mtj")).string());
    FailingSink failing(kFailing);
    const RecordingSink& sink = failing.recorded;
    EvalSession session;
    session.pool = &pool;
    session.sink = &failing;
    session.batch = kBatch;
    session.checkpoint = &ckpt;
    try {
      rank_vectors_stream(eval_, pairs, 8.0, session);
      ADD_FAILURE() << "the sink's failure did not propagate (" << threads << " threads)";
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.info().code, FailureCode::kInjected);
    }
    const std::vector<std::string> prefix(expected.begin(), expected.begin() + kFailing);
    EXPECT_TRUE(test::same(sink.rows, prefix)) << threads << " threads";
    expect_caller_only(sink);
    // Every chunk ran to its end: every item is journaled.
    EXPECT_EQ(ckpt.journal().item_count(), pairs.size()) << threads << " threads";
  }
}

TEST_F(EmissionContractTest, WorkerThrowLeavesOnlyWholeInOrderChunksEmitted) {
  const auto pairs = adder_pairs();
  const std::vector<std::string> expected = reference(pairs);
  constexpr std::size_t kFailing = 300;  // inside chunk 18
  for (const int threads : {1, 2, 4}) {
    util::ThreadPool pool(threads);
    Checkpoint ckpt;
    ckpt.open((dir_ / ("t" + std::to_string(threads) + ".mtj")).string());
    // The journal fault escapes run_item: the chunk task itself throws.
    faultinject::arm(faultinject::Site::kJournalAppend, static_cast<std::int64_t>(kFailing), 1);
    RecordingSink sink;
    EvalSession session;
    session.pool = &pool;
    session.sink = &sink;
    session.batch = kBatch;
    session.checkpoint = &ckpt;
    EXPECT_THROW(rank_vectors_stream(eval_, pairs, 8.0, session), NumericalError);
    faultinject::disarm_all();
    EXPECT_EQ(sink.rows.size() % kBatch, 0u) << threads << " threads";
    EXPECT_LE(sink.rows.size(), kFailing / kBatch * kBatch) << threads << " threads";
    // Inline, every chunk before the failing one is emitted as it ends.
    if (threads == 1) {
      EXPECT_EQ(sink.rows.size(), kFailing / kBatch * kBatch);
    }
    const std::vector<std::string> prefix(expected.begin(), expected.begin() + sink.rows.size());
    EXPECT_TRUE(test::same(sink.rows, prefix)) << threads << " threads";
    expect_caller_only(sink);
  }
}

// --- Several passes as one pool job (rank_vectors_passes) ---------------
//
// Pass k + 1 computes while pass k emits, yet rows and close() calls come
// from the calling thread in exactly the order that running the passes one
// at a time produces.

class PassSchedulerTest : public ParallelDeterminismTest {
 protected:
  static constexpr std::size_t kBatch = 16;

  struct Plan {
    std::size_t begin = 0;
    std::size_t n = 0;
    double wl = 0.0;
  };

  /// Uneven slices of the pair set at three W/Ls, one of them empty, so
  /// passes end mid-chunk and a pass boundary falls inside a pool round.
  static std::vector<Plan> plan() {
    return {{0, 100, 8.0}, {100, 0, 8.0}, {100, 37, 20.0}, {137, 250, 8.0}, {387, 125, 50.0}};
  }

  static std::string close_line(std::size_t k, std::size_t rows) {
    return "close " + std::to_string(k) + " after " + std::to_string(rows);
  }

  /// The passes run one at a time on the serial pool, each closed by a
  /// marker line after its rows.
  std::vector<std::string> one_at_a_time(const std::vector<VectorPair>& pairs) {
    std::vector<std::string> log;
    const std::vector<Plan> passes = plan();
    for (std::size_t k = 0; k < passes.size(); ++k) {
      const std::vector<VectorPair> slice(pairs.begin() + passes[k].begin,
                                          pairs.begin() + passes[k].begin + passes[k].n);
      RecordingSink sink;
      EvalSession session;
      session.pool = &serial_;
      session.sink = &sink;
      session.batch = kBatch;
      const std::size_t rows = rank_vectors_stream(eval_, slice, passes[k].wl, session);
      log.insert(log.end(), sink.rows.begin(), sink.rows.end());
      log.push_back(close_line(k, rows));
    }
    return log;
  }

  /// Every pass into one shared sink; close() appends the marker line to
  /// the same log and returns false at pass `stop_at`.
  class LoggedPasses final : public RankPasses {
   public:
    LoggedPasses(const EvalBackend& backend, const std::vector<VectorPair>& pairs,
                 std::size_t stop_at)
        : backend_(backend), pairs_(pairs), stop_at_(stop_at) {}

    RankPass open(std::size_t k) override {
      opens.fetch_add(1);
      const Plan p = plan()[k];
      return {&backend_, pairs_.data() + p.begin, p.wl, &sink, nullptr};
    }
    bool close(std::size_t k, std::size_t rows) override {
      sink.rows.push_back(close_line(k, rows));
      sink.threads.push_back(std::this_thread::get_id());
      return k != stop_at_;
    }

    RecordingSink sink;
    std::atomic<int> opens{0};

   private:
    const EvalBackend& backend_;
    const std::vector<VectorPair>& pairs_;
    std::size_t stop_at_;
  };

  static std::vector<std::size_t> sizes() {
    std::vector<std::size_t> out;
    for (const Plan& p : plan()) out.push_back(p.n);
    return out;
  }
};

TEST_F(PassSchedulerTest, RowsAndClosesMatchRunningThePassesOneAtATime) {
  const auto pairs = adder_pairs();
  const std::vector<std::string> expected = one_at_a_time(pairs);
  for (const int threads : {1, 2, 4}) {
    util::ThreadPool pool(threads);
    LoggedPasses passes(eval_, pairs, static_cast<std::size_t>(-1));
    EvalSession session;
    session.pool = &pool;
    session.batch = kBatch;
    const std::size_t rows = rank_vectors_passes(sizes(), passes, session);
    EXPECT_TRUE(test::same(passes.sink.rows, expected)) << threads << " threads";
    EXPECT_EQ(rows, expected.size() - plan().size()) << threads << " threads";
    EXPECT_EQ(passes.opens.load(), static_cast<int>(plan().size())) << threads << " threads";
    for (const std::thread::id id : passes.sink.threads) {
      ASSERT_EQ(id, std::this_thread::get_id()) << threads << " threads";
    }
  }
}

TEST_F(PassSchedulerTest, CloseThatReturnsFalseStopsEveryLaterPass) {
  const auto pairs = adder_pairs();
  const std::vector<std::string> all = one_at_a_time(pairs);
  constexpr std::size_t kStop = 2;
  const auto end = std::find(all.begin(), all.end(), close_line(kStop, plan()[kStop].n));
  ASSERT_NE(end, all.end());
  const std::vector<std::string> expected(all.begin(), end + 1);
  for (const int threads : {1, 2, 4}) {
    util::ThreadPool pool(threads);
    LoggedPasses passes(eval_, pairs, kStop);
    EvalSession session;
    session.pool = &pool;
    session.batch = kBatch;
    rank_vectors_passes(sizes(), passes, session);
    EXPECT_TRUE(test::same(passes.sink.rows, expected)) << threads << " threads";
  }
}

}  // namespace
}  // namespace mtcmos::sizing
