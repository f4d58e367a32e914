// Streaming result path: sinks observe exactly the rows the legacy
// return values are built from, spilled rows decode back bit-identical,
// and keys reach only the sinks that want them.  That checkpoint replay
// feeds a sink the same keyed rows as the original run is the stream
// row's fresh == resumed cell of the contract matrix (contract_test.cpp).

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "sizing/backend.hpp"
#include "sizing/result_sink.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "util/columnar.hpp"
#include "contract.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

using sizing::ColumnarSpillSink;
using sizing::EvalSession;
using sizing::MemorySink;
using sizing::parse_item_key_transition;
using sizing::TeeSink;
using sizing::VbsBackend;
using sizing::VectorDelay;
using sizing::VectorPair;
using util::ColumnarRow;
using util::ColumnarWriter;

class ResultSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_dir("result_sink_test");
    std::filesystem::create_directories(dir_);

    adder_ = std::make_unique<circuits::RippleAdder>(circuits::make_ripple_adder(tech07(), 2));
    for (const auto s : adder_->sum) outputs_.push_back(adder_->netlist.net_name(s));
    outputs_.push_back(adder_->netlist.net_name(adder_->cout));
    backend_ = std::make_unique<VbsBackend>(adder_->netlist, outputs_);
    vectors_ = sizing::all_vector_pairs(static_cast<int>(adder_->netlist.inputs().size()));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
  std::unique_ptr<circuits::RippleAdder> adder_;
  std::vector<std::string> outputs_;
  std::unique_ptr<VbsBackend> backend_;
  std::vector<VectorPair> vectors_;
};

/// MemorySink that also demands keys, so its recording is comparable
/// with a key-carrying columnar spill row for row.
class KeyedMemorySink final : public sizing::ResultSink {
 public:
  MemorySink inner;
  bool wants_keys() const override { return true; }
  void on_delay(const std::string& key, const VectorDelay& row) override {
    inner.on_delay(key, row);
  }
  void on_value(const std::string& key, double value) override { inner.on_value(key, value); }
};

TEST_F(ResultSinkTest, StreamRequiresASink) {
  EvalSession session;
  EXPECT_THROW(sizing::rank_vectors_stream(*backend_, vectors_, 10.0, session),
               std::invalid_argument);
}

TEST_F(ResultSinkTest, AttachingASinkDoesNotChangeRankVectorsReturn) {
  const auto plain = sizing::rank_vectors(*backend_, vectors_, 10.0);
  MemorySink sink;
  EvalSession session;
  session.sink = &sink;
  EXPECT_TRUE(test::same(sizing::rank_vectors(*backend_, vectors_, 10.0, session), plain));
  // The sink sees the full universe (non-switching rows included), the
  // return value only the switching subset.
  EXPECT_EQ(sink.delays.size(), vectors_.size());
  EXPECT_GT(sink.delays.size(), plain.size());
}

TEST_F(ResultSinkTest, MemoryAndColumnarSinksObserveIdenticalRows) {
  KeyedMemorySink keyed;
  MemorySink& memory = keyed.inner;
  EvalSession mem_session;
  mem_session.sink = &keyed;
  const std::size_t n_mem = sizing::rank_vectors_stream(*backend_, vectors_, 10.0, mem_session);

  ColumnarWriter store;
  store.open(path("rows.mtc"));
  ColumnarSpillSink spill(store);
  EvalSession spill_session;
  spill_session.sink = &spill;
  const std::size_t n_spill =
      sizing::rank_vectors_stream(*backend_, vectors_, 10.0, spill_session);
  store.close();

  EXPECT_EQ(n_mem, n_spill);
  ASSERT_EQ(memory.delays.size(), n_mem);

  std::size_t i = 0;
  util::scan_columnar_file(path("rows.mtc"), [&](const ColumnarRow& row) {
    ASSERT_LT(i, memory.delays.size());
    EXPECT_EQ(row.key, memory.delays[i].key);
    const VectorDelay decoded = ColumnarSpillSink::decode_delay(row);
    EXPECT_TRUE(test::same(decoded, memory.delays[i].row)) << "row " << i;
    ++i;
  });
  EXPECT_EQ(i, n_mem);
}

TEST_F(ResultSinkTest, SizingEmitsValueRowsIdenticallyOnBothSinks) {
  KeyedMemorySink keyed;
  MemorySink& memory = keyed.inner;
  EvalSession mem_session;
  mem_session.sink = &keyed;
  const auto sized_mem = sizing::size_for_degradation(*backend_, vectors_, 5.0, {}, mem_session);

  ColumnarWriter store;
  store.open(path("probe.mtc"));
  ColumnarSpillSink spill(store);
  EvalSession spill_session;
  spill_session.sink = &spill;
  const auto sized_spill =
      sizing::size_for_degradation(*backend_, vectors_, 5.0, {}, spill_session);
  store.close();

  EXPECT_EQ(sized_mem.wl, sized_spill.wl);
  EXPECT_EQ(sized_mem.degradation_pct, sized_spill.degradation_pct);

  std::size_t d = 0, v = 0;
  util::scan_columnar_file(path("probe.mtc"), [&](const ColumnarRow& row) {
    if (row.n_cols == ColumnarSpillSink::kDelayCols) {
      ASSERT_LT(d, memory.delays.size());
      EXPECT_EQ(row.key, memory.delays[d].key);
      EXPECT_TRUE(test::same(ColumnarSpillSink::decode_delay(row), memory.delays[d].row));
      ++d;
    } else {
      ASSERT_EQ(row.n_cols, 1u);
      ASSERT_LT(v, memory.values.size());
      EXPECT_EQ(row.key, memory.values[v].key);
      EXPECT_EQ(row.values[0], memory.values[v].value);
      ++v;
    }
  });
  EXPECT_EQ(d, memory.delays.size());
  EXPECT_EQ(v, memory.values.size());
}

TEST_F(ResultSinkTest, TeeSinkFansOutToBothTargets) {
  MemorySink a, b;
  TeeSink tee(a, b);
  EXPECT_FALSE(tee.wants_keys());  // both memory sinks decline keys
  EvalSession session;
  session.sink = &tee;
  sizing::rank_vectors_stream(*backend_, vectors_, 10.0, session);
  ASSERT_EQ(a.delays.size(), b.delays.size());
  ASSERT_EQ(a.delays.size(), vectors_.size());
  for (std::size_t i = 0; i < a.delays.size(); ++i) {
    EXPECT_EQ(a.delays[i].key, b.delays[i].key);
    EXPECT_TRUE(test::same(a.delays[i].row, b.delays[i].row));
  }
}

TEST_F(ResultSinkTest, KeysAreFormattedOnlyWhenSomethingWantsThem) {
  MemorySink memory;  // wants_keys() == false, no checkpoint
  EvalSession session;
  session.sink = &memory;
  sizing::rank_vectors_stream(*backend_, vectors_, 10.0, session);
  ASSERT_FALSE(memory.delays.empty());
  EXPECT_TRUE(memory.delays.front().key.empty());

  ColumnarWriter store;
  store.open(path("keyed.mtc"));
  ColumnarSpillSink spill(store);  // wants_keys() == true
  EvalSession keyed;
  keyed.sink = &spill;
  sizing::rank_vectors_stream(*backend_, vectors_, 10.0, keyed);
  store.close();
  util::scan_columnar_file(path("keyed.mtc"), [](const ColumnarRow& row) {
    EXPECT_FALSE(row.key.empty());
  });
}

TEST(ParseItemKey, RoundTripsTransitionBits) {
  VectorPair vp;
  ASSERT_TRUE(parse_item_key_transition("rank:vbs:1234:abcd:0101-1100", vp));
  EXPECT_EQ(vp.v0, (std::vector<bool>{false, true, false, true}));
  EXPECT_EQ(vp.v1, (std::vector<bool>{true, true, false, false}));
}

TEST(ParseItemKey, RejectsMalformedSuffixes) {
  VectorPair vp;
  EXPECT_FALSE(parse_item_key_transition("", vp));
  EXPECT_FALSE(parse_item_key_transition("no-colon-here", vp));
  EXPECT_FALSE(parse_item_key_transition("prefix:0101", vp));        // no '-'
  EXPECT_FALSE(parse_item_key_transition("prefix:01-111", vp));      // length mismatch
  EXPECT_FALSE(parse_item_key_transition("prefix:01a1-1100", vp));   // non-bit char
  EXPECT_FALSE(parse_item_key_transition("prefix:-", vp));           // empty runs
}

}  // namespace
}  // namespace mtcmos
