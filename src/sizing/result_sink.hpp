#pragma once
// Streaming result path for sweep entry points.
//
// A materialized vector of rows caps a campaign at whatever fits in RAM,
// so the entry points in session.hpp *emit* each measured row into a
// ResultSink during their serial input-order reduction.  A returned
// vector (rank_vectors) is what the entry point builds from a MemorySink
// afterwards, while campaign-scale callers plug in a ColumnarSpillSink
// and never hold more than a block of rows in memory.
//
// Row identity: a sink that wants_keys() receives each row's
// content-derived key (checkpoint_item_key -- op, backend, netlist
// fingerprint, W/L bits, transition bits), the identity the journal's
// typed item keys encode.  That makes spilled rows self-describing (the
// transition is recoverable from the key alone), lets shard stores merge
// exactly like shard journals, and means checkpoint *replay* feeds a sink
// the same bytes the original run did.
//
// Emission discipline: sinks are called only from the entry points'
// serial reduction loops, in input order, so implementations need no
// locking and identical sweeps produce identical emission sequences for
// any thread count.  Rows that failed the sweep policy are reported via
// SweepReport, never emitted.

#include <cstddef>
#include <string>
#include <vector>

#include "sizing/eval_types.hpp"
#include "util/columnar.hpp"

namespace mtcmos::sizing {

class ResultSink {
 public:
  virtual ~ResultSink();

  /// Whether emissions must carry real row keys.  Other sinks are fed
  /// empty keys: entry points format keys only for a sink that wants
  /// them, keeping the default (MemorySink-backed) path allocation-lean.
  virtual bool wants_keys() const { return false; }

  /// One ranked-sweep measurement (rank_vectors).  Every successfully
  /// measured row is emitted, including non-switching ones
  /// (delay <= 0) -- consumers filter, so a streaming consumer sees the
  /// same universe rank_vectors' return-value filter sees.
  virtual void on_delay(const std::string& key, const VectorDelay& row) = 0;

  /// One scalar measurement (bisection probe degradation, search score,
  /// screening weight, verification probe).
  virtual void on_value(const std::string& key, double value) = 0;

  /// Durability point: spill sinks write out buffered rows.
  virtual void flush() {}
};

/// Collects emissions in order; the in-RAM sink behind the entry points
/// that return a vector and the reference half of streaming-equivalence
/// tests.
class MemorySink final : public ResultSink {
 public:
  struct DelayRow {
    std::string key;
    VectorDelay row;
  };
  struct ValueRow {
    std::string key;
    double value = 0.0;
  };

  std::vector<DelayRow> delays;
  std::vector<ValueRow> values;

  void on_delay(const std::string& key, const VectorDelay& row) override {
    delays.push_back({key, row});
  }
  void on_value(const std::string& key, double value) override {
    values.push_back({key, value});
  }
};

/// Spills emissions into a util::ColumnarWriter: delay rows as three
/// fixed-width columns [delay_cmos, delay_mtcmos, degradation_pct],
/// value rows as one.  The transition bits travel in the key, so a
/// spilled delay row decodes back to the full VectorDelay.  RAM is
/// bounded by the writer's block buffer regardless of row count.
class ColumnarSpillSink final : public ResultSink {
 public:
  static constexpr std::size_t kDelayCols = 3;

  /// The writer is borrowed: the caller owns open/close/tag lifecycle
  /// (a campaign driver tags blocks by chunk, a shard worker by range).
  explicit ColumnarSpillSink(util::ColumnarWriter& writer) : writer_(writer) {}

  bool wants_keys() const override { return true; }
  void on_delay(const std::string& key, const VectorDelay& row) override {
    const double cols[kDelayCols] = {row.delay_cmos, row.delay_mtcmos, row.degradation_pct};
    writer_.append(key, cols, kDelayCols);
  }
  void on_value(const std::string& key, double value) override {
    writer_.append(key, &value, 1);
  }
  void flush() override { writer_.flush(); }

  util::ColumnarWriter& writer() { return writer_; }

  /// Rebuild the VectorDelay a 3-column row was spilled from (columns +
  /// the transition bits parsed off the key).  Throws std::runtime_error
  /// on a row that is not a delay row or whose key has no transition
  /// suffix.
  static VectorDelay decode_delay(const util::ColumnarRow& row);

 private:
  util::ColumnarWriter& writer_;
};

/// Fans every emission out to two sinks (rank_vectors collecting into a
/// MemorySink while the session's spill sink also observes the sweep).
class TeeSink final : public ResultSink {
 public:
  TeeSink(ResultSink& first, ResultSink& second) : first_(first), second_(second) {}

  bool wants_keys() const override { return first_.wants_keys() || second_.wants_keys(); }
  void on_delay(const std::string& key, const VectorDelay& row) override {
    first_.on_delay(key, row);
    second_.on_delay(key, row);
  }
  void on_value(const std::string& key, double value) override {
    first_.on_value(key, value);
    second_.on_value(key, value);
  }
  void flush() override {
    first_.flush();
    second_.flush();
  }

 private:
  ResultSink& first_;
  ResultSink& second_;
};

/// Parse the transition bits off a checkpoint item key
/// ("<prefix>:<v0bits>-<v1bits>", bits as literal '0'/'1' runs).
/// Returns false when the key has no well-formed transition suffix.
bool parse_item_key_transition(const std::string& key, VectorPair& out);

}  // namespace mtcmos::sizing
