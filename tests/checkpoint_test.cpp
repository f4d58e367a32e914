// Tests for crash-safe sweep orchestration (sizing/checkpoint.hpp plus
// the checkpoint/cancellation paths of sizing/session.hpp): typed record
// round-trips at full double precision, the persistence filter for
// interruption artifacts, the bind_meta run-configuration guard,
// SizingBounds validation, replay without simulation, rank kill-and-resume
// on VBS, resumes over journals of older builds, commit groups lost to a
// kill, and cancellation.  Kill-and-resume merging bit-identically with an
// uninterrupted run, for every entry point on both backends, is the
// fresh == resumed column of the contract matrix (contract_test.cpp).

#include "sizing/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/journal.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
#include "contract.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

using circuits::make_inverter_tree;
using circuits::make_ripple_adder;
using sizing::Checkpoint;
using sizing::checkpoint_item_key;
using sizing::checkpoint_prefix;
using sizing::checkpoint_prefix_nowl;
using sizing::EvalBackend;
using sizing::EvalSession;
using sizing::netlist_fingerprint;
using sizing::SpiceBackend;
using sizing::SpiceBackendOptions;
using sizing::VbsBackend;
using sizing::VectorDelay;
using sizing::VectorPair;
using units::ns;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_dir("checkpoint_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    faultinject::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name = "ckpt.mtj") const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

std::vector<std::string> adder_outputs(const circuits::RippleAdder& adder) {
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  return outs;
}

/// Deterministic pure-function backend with call counters: lets tests
/// assert that a resumed sweep *replays* instead of re-simulating, and
/// (via an injectable hook) act inside chosen items, e.g. raise a cancel
/// token mid-sweep.  The netlist is only identity for fingerprinting.
class FakeBackend : public EvalBackend {
 public:
  FakeBackend(const netlist::Netlist& nl, std::vector<std::string> outputs)
      : nl_(nl), outputs_(std::move(outputs)) {}

  const char* name() const override { return "fake"; }
  const netlist::Netlist& netlist() const override { return nl_; }
  const std::vector<std::string>& outputs() const override { return outputs_; }

  double delay_baseline(const VectorPair& vp) const override {
    ++baseline_calls;
    (void)vp;
    return 1e-9;
  }
  double delay_at_wl(const VectorPair& vp, double wl) const override {
    ++delay_calls;
    if (hook) hook(vp);
    return delay_of(vp, wl);
  }

  static double delay_of(const VectorPair& vp, double wl) {
    double v = 0.0;
    for (const bool b : vp.v1) v = v * 2.0 + (b ? 1.0 : 0.0);
    for (const bool b : vp.v0) v = v * 2.0 + (b ? 1.0 : 0.0);
    return 1e-9 + v * 1e-12 + 1e-10 / wl;
  }

  mutable std::atomic<int> baseline_calls{0};
  mutable std::atomic<int> delay_calls{0};
  std::function<void(const VectorPair&)> hook;

 private:
  const netlist::Netlist& nl_;
  std::vector<std::string> outputs_;
};

/// FakeBackend on the session's batch path.  The batch call reports the
/// flagged item (v1[0] set) as a failure, so the per-item pass retries it
/// through the scalar delay_at_wl -- the only hook call of the sweep,
/// landing mid-way through the per-item pass.
class BatchFakeBackend : public FakeBackend {
 public:
  using FakeBackend::FakeBackend;
  bool supports_batch() const override { return true; }
  void delay_at_wl_batch(const VectorPair* const* vps, std::size_t n, double wl,
                         Outcome<double>* out) const override {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = vps[i]->v1[0] ? Outcome<double>::fail({FailureCode::kInjected, "fake", "batch"})
                             : Outcome<double>::success(delay_of(*vps[i], wl), 1);
    }
  }
};

/// Batch backend that counts the transitions each batch call receives,
/// to check that the session's kernel sees exactly the unjournaled items.
/// The sized delay degrades by 100 / wl % plus a tiny per-vector nudge, so
/// a sizing to 5 % bisects to about W/L 20 and its worst vector is the
/// one with the largest v1.
class CountingBatchBackend : public FakeBackend {
 public:
  using Seen = std::map<std::pair<std::vector<bool>, std::vector<bool>>, int>;
  using FakeBackend::FakeBackend;

  bool supports_batch() const override { return true; }
  double delay_at_wl(const VectorPair& vp, double wl) const override { return sized(vp, wl); }
  void delay_baseline_batch(const VectorPair* const* vps, std::size_t n,
                            Outcome<double>* out) const override {
    note(baseline_seen, vps, n);
    for (std::size_t i = 0; i < n; ++i) out[i] = Outcome<double>::success(delay_baseline(*vps[i]));
  }
  void delay_at_wl_batch(const VectorPair* const* vps, std::size_t n, double wl,
                         Outcome<double>* out) const override {
    note(sized_seen, vps, n);
    for (std::size_t i = 0; i < n; ++i) out[i] = Outcome<double>::success(sized(*vps[i], wl));
  }

  mutable std::mutex mutex;
  mutable Seen baseline_seen, sized_seen;
  mutable int batch_calls = 0;
  mutable int empty_calls = 0;

 private:
  static double sized(const VectorPair& vp, double wl) {
    double v = 0.0;
    for (const bool b : vp.v1) v = v * 2.0 + (b ? 1.0 : 0.0);
    return 1e-9 * (1.0 + 1.0 / wl) + v * 1e-16;
  }
  void note(Seen& seen, const VectorPair* const* vps, std::size_t n) const {
    const std::lock_guard<std::mutex> lock(mutex);
    ++batch_calls;
    if (n == 0) ++empty_calls;
    for (std::size_t i = 0; i < n; ++i) ++seen[{vps[i]->v0, vps[i]->v1}];
  }
};

/// n-bit vectors where only item `slow` has v1[0] set (the hook's flag
/// bit); the remaining bits enumerate the index so every key is distinct.
std::vector<VectorPair> flagged_vectors(std::size_t count, std::size_t slow) {
  std::vector<VectorPair> out;
  for (std::size_t i = 0; i < count; ++i) {
    VectorPair vp;
    vp.v0.assign(8, false);
    vp.v1.assign(8, false);
    vp.v1[0] = i == slow;
    for (std::size_t b = 0; b < 7; ++b) vp.v1[b + 1] = ((i >> b) & 1u) != 0;
    out.push_back(std::move(vp));
  }
  return out;
}

// --- Keys and fingerprints ---

TEST_F(CheckpointTest, KeysAreContentDerived) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const auto outs = adder_outputs(adder);
  const std::uint64_t fp = netlist_fingerprint(adder.netlist, outs);
  EXPECT_EQ(fp, netlist_fingerprint(adder.netlist, outs));  // stable
  EXPECT_NE(fp, netlist_fingerprint(adder.netlist, {}));    // outputs matter

  const std::string p1 = checkpoint_prefix("rank", "vbs", fp, 10.0);
  EXPECT_NE(p1, checkpoint_prefix("probe", "vbs", fp, 10.0));
  EXPECT_NE(p1, checkpoint_prefix("rank", "spice", fp, 10.0));
  EXPECT_NE(p1, checkpoint_prefix("rank", "vbs", fp, 10.5));
  EXPECT_NE(p1, checkpoint_prefix_nowl("rank", "vbs", fp));

  const VectorPair a{{false, true}, {true, false}};
  const VectorPair b{{false, true}, {true, true}};
  EXPECT_NE(checkpoint_item_key(p1, a), checkpoint_item_key(p1, b));
  EXPECT_EQ(checkpoint_item_key(p1, a), checkpoint_item_key(p1, a));
}

// --- Typed record round-trips ---

TEST_F(CheckpointTest, DoubleOutcomeRoundTripsToTheLastUlp) {
  Checkpoint ckpt;
  ckpt.open(path());
  const double values[] = {0.1 + 0.2, 1e-300, -0.0, 3.5e9, 1.0 / 3.0};
  int i = 0;
  for (const double v : values) {
    const std::string key = std::string("k").append(std::to_string(i++));
    ckpt.record(key, Outcome<double>::success(v, 2));
    Outcome<double> back;
    ASSERT_TRUE(ckpt.lookup(key, back)) << key;
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back.value), std::bit_cast<std::uint64_t>(v));
    EXPECT_EQ(back.attempts, 2);
  }
  // And across a close/reopen cycle (i.e. through the on-disk format).
  Checkpoint resumed;
  resumed.open(path());
  Outcome<double> back;
  ASSERT_TRUE(resumed.lookup("k0", back));
  EXPECT_EQ(*back.value, 0.1 + 0.2);
}

TEST_F(CheckpointTest, VectorDelayOutcomeRoundTrips) {
  Checkpoint ckpt;
  ckpt.open(path());
  VectorDelay vd;
  vd.pair = {{true, false}, {false, true}};
  vd.delay_cmos = 1.25e-9;
  vd.delay_mtcmos = 1.5e-9;
  vd.degradation_pct = 20.0;
  ckpt.record("vd", Outcome<VectorDelay>::success(vd, 1));
  Outcome<VectorDelay> back;
  ASSERT_TRUE(ckpt.lookup("vd", back));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value->delay_cmos, vd.delay_cmos);
  EXPECT_EQ(back.value->delay_mtcmos, vd.delay_mtcmos);
  EXPECT_EQ(back.value->degradation_pct, vd.degradation_pct);
  // The transition is part of the *key*, not the record: the sweep
  // re-attaches it after lookup.
  EXPECT_TRUE(back.value->pair.v0.empty());
}

TEST_F(CheckpointTest, FailureOutcomeRoundTripsWithSiteAndContext) {
  Checkpoint ckpt;
  ckpt.open(path());
  FailureInfo info;
  info.code = FailureCode::kNewtonDiverged;
  info.site = "spice::newton";
  info.context = "diverged after 40 iterations, with spaces";
  info.attempts = 2;
  ckpt.record("f", Outcome<double>::fail(info));
  Outcome<double> back;
  ASSERT_TRUE(ckpt.lookup("f", back));
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.failure.code, FailureCode::kNewtonDiverged);
  EXPECT_EQ(back.failure.site, info.site);
  EXPECT_EQ(back.failure.context, info.context);
  EXPECT_EQ(back.failure.attempts, 2);
}

/// Bit patterns the decoder must carry unchanged: signed zero, both
/// subnormal extremes, infinities and NaNs with payloads.
const std::uint64_t kEdgeBits[] = {
    0x8000000000000000ull,  // -0.0
    0x0000000000000001ull,  // smallest denormal
    0x000fffffffffffffull,  // largest denormal
    0x7ff0000000000000ull,  // +inf
    0xfff0000000000000ull,  // -inf
    0x7ff8000000dead01ull,  // quiet NaN with a payload
    0xfff0000000000badull,  // negative signaling NaN with a payload
    0x3ff0000000000000ull,  // 1.0
    0xffefffffffffffffull,  // -DBL_MAX
};

/// `n` distinct 4-bit transitions (v0 = i, v1 = 0).
std::vector<VectorPair> numbered_pairs(std::size_t n) {
  std::vector<VectorPair> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].v1.assign(4, false);
    for (std::size_t b = 0; b < 4; ++b) out[i].v0.push_back(((i >> b) & 1u) != 0);
  }
  return out;
}

const std::string kDoublePass = "probe:fake:00000000000000aa:4024000000000000:";
const std::string kDelayPass = "rank:fake:00000000000000aa:4024000000000000:";

TEST_F(CheckpointTest, EveryRecordFormRoundTripsBitExactly) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  FailureInfo info{FailureCode::kSingularMatrix, "spice::lu", "pivot 0 at node n3"};
  info.attempts = 3;
  const std::size_t n = std::size(kEdgeBits);
  const std::vector<VectorPair> pairs = numbered_pairs(n + 2);
  {
    Checkpoint ckpt;
    ckpt.open(path());
    const sizing::ItemKeys dkey(ckpt.context(kDoublePass), pairs);
    const sizing::ItemKeys vkey(ckpt.context(kDelayPass), pairs);
    Checkpoint::Stage stage;
    int i = 0;
    for (const std::uint64_t b : kEdgeBits) {
      const double v = std::bit_cast<double>(b);
      Checkpoint::Stage one;  // committed on its own, like a serial call site
      ckpt.record(dkey[i], Outcome<double>::success(v, 1 + i), one);
      ckpt.commit(one);
      VectorDelay vd;
      vd.delay_cmos = v;
      vd.delay_mtcmos = std::bit_cast<double>(~b);
      vd.degradation_pct = -v;
      ckpt.record(vkey[i], Outcome<VectorDelay>::success(vd, 7), stage);
      ++i;
    }
    ckpt.record(dkey[n], Outcome<double>::fail(info), stage);
    ckpt.record(vkey[n], Outcome<VectorDelay>::fail(info), stage);
    ckpt.record_failure(vkey[n + 1], {FailureCode::kPoisonedItem, "sizing::supervisor", ""},
                        stage);
    ckpt.record_failure(std::string("chunk:q"),
                        {FailureCode::kPoisonedItem, "sizing::supervisor", ""}, stage);
    ckpt.commit(stage);
  }
  Checkpoint ckpt;  // through the on-disk format
  ckpt.open(path());
  const sizing::ItemKeys dkey(ckpt.context(kDoublePass), pairs);
  const sizing::ItemKeys vkey(ckpt.context(kDelayPass), pairs);
  int i = 0;
  for (const std::uint64_t b : kEdgeBits) {
    SCOPED_TRACE(i);
    Outcome<double> d;
    ASSERT_TRUE(ckpt.lookup(dkey[i], d));
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(bits(*d.value), b);
    EXPECT_EQ(d.attempts, 1 + i);
    Outcome<VectorDelay> v;
    ASSERT_TRUE(ckpt.lookup(vkey[i], v));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(bits(v.value->delay_cmos), b);
    EXPECT_EQ(bits(v.value->delay_mtcmos), ~b);
    EXPECT_EQ(bits(v.value->degradation_pct), b ^ 0x8000000000000000ull);
    EXPECT_EQ(v.attempts, 7);
    ++i;
  }
  Outcome<double> fd;
  ASSERT_TRUE(ckpt.lookup(dkey[n], fd));
  EXPECT_FALSE(fd.ok());
  EXPECT_EQ(fd.failure.code, info.code);
  EXPECT_EQ(fd.failure.site, info.site);
  EXPECT_EQ(fd.failure.context, info.context);
  EXPECT_EQ(fd.attempts, 3);
  Outcome<VectorDelay> fv;
  ASSERT_TRUE(ckpt.lookup(vkey[n], fv));
  EXPECT_FALSE(fv.ok());
  EXPECT_EQ(fv.failure.context, info.context);
  Outcome<VectorDelay> q;  // a bare failure replays under either type
  ASSERT_TRUE(ckpt.lookup(vkey[n + 1], q));
  EXPECT_EQ(q.failure.code, FailureCode::kPoisonedItem);
  EXPECT_EQ(q.failure.site, "sizing::supervisor");
  EXPECT_EQ(q.failure.context, "");
  Outcome<double> qt;  // and so does the text-keyed (campaign chunk) form
  ASSERT_TRUE(ckpt.lookup("chunk:q", qt));
  EXPECT_EQ(qt.failure.code, FailureCode::kPoisonedItem);
  EXPECT_EQ(qt.failure.site, "sizing::supervisor");
  // The cold string view addresses the same typed records.
  Outcome<double> viewed;
  ASSERT_TRUE(ckpt.lookup(sizing::checkpoint_item_key(kDoublePass, pairs[2]), viewed));
  EXPECT_EQ(bits(*viewed.value), kEdgeBits[2]);
}

TEST_F(CheckpointTest, TypedDecoderRejectsUnknownCodesAndNegativeAttempts) {
  // CRC-valid item records no writer of this tree produces: failure codes
  // past kPoisonedItem (once "%d" parsing turned 300 into 44 and -1 into
  // 255), negative attempt counts, and value counts of neither type.
  Checkpoint ckpt;
  ckpt.open(path());
  const std::vector<VectorPair> pairs = numbered_pairs(8);
  const sizing::ItemKeys keys(ckpt.context(kDelayPass), pairs);
  const auto failure = [](int attempts, unsigned code) {
    util::ItemValue v;
    v.attempts = attempts;
    v.code = static_cast<std::uint8_t>(code);
    v.site = "s";
    return v;
  };
  util::ItemValue success = failure(-1, 0);
  success.values = 3;
  util::ItemValue two = failure(1, 0);
  two.values = 2;
  const util::ItemValue bad[] = {failure(1, 44), failure(1, 255), failure(1, 10), failure(-1, 1),
                                 success, two};
  util::JournalBatch batch;
  for (std::size_t i = 0; i < std::size(bad); ++i) batch.add(keys[i], bad[i]);
  batch.add(keys[6], failure(0, static_cast<unsigned>(FailureCode::kPoisonedItem)));
  ckpt.journal().append_batch(batch);
  ckpt.journal().append("chunk:bad", util::encode_item_value(bad[0]));

  const auto expect_corrupt = [](const std::function<void()>& lookup) {
    try {
      lookup();
      ADD_FAILURE() << "lookup accepted a malformed record";
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.info().code, FailureCode::kInvalidArgument);
    }
  };
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    SCOPED_TRACE(i);
    expect_corrupt([&] {
      Outcome<double> out;
      ckpt.lookup(keys[i], out);
    });
    expect_corrupt([&] {
      Outcome<VectorDelay> out;
      ckpt.lookup(keys[i], out);
    });
  }
  expect_corrupt([&] {
    Outcome<double> out;
    ckpt.lookup("chunk:bad", out);
  });
  Outcome<double> edge;  // the largest code and zero attempts are legal
  ASSERT_TRUE(ckpt.lookup(keys[6], edge));
  EXPECT_EQ(edge.failure.code, FailureCode::kPoisonedItem);
  EXPECT_EQ(edge.attempts, 0);
}

/// `n` distinct transitions of `bits` bits: v0 holds i in its low bits
/// and sets the top bit, v1 is i's complement in its top byte.
std::vector<VectorPair> wide_pairs(std::size_t n, std::size_t bits) {
  std::vector<VectorPair> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].v0.assign(bits, false);
    out[i].v1.assign(bits, false);
    for (std::size_t b = 0; b < 8; ++b) {
      out[i].v0[b] = ((i >> b) & 1u) != 0;
      out[i].v1[bits - 1 - b] = ((i >> b) & 1u) == 0;
    }
    out[i].v0[bits - 1] = true;
  }
  return out;
}

TEST_F(CheckpointTest, RangeLookupMatchesOneKeyLookups) {
  // A range lookup decodes what the one-key lookup decodes, key by key:
  // absent items, failures with site and context text, items a later
  // record overwrote, and 70-bit (two-word) transitions -- also after the
  // journal is closed.  The presence-only range read agrees, and so do
  // the one-key contains of item and text keys.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const FailureInfo info{FailureCode::kSingularMatrix, "spice::lu", "pivot 0 at node n3"};
  const std::vector<VectorPair> narrow = wide_pairs(40, 8), wide = wide_pairs(20, 70);
  Checkpoint ckpt;
  ckpt.open(path());
  const sizing::ItemKeys nkeys(ckpt.context(kDoublePass), narrow);
  const sizing::ItemKeys wkeys(ckpt.context(kDelayPass), wide);
  Checkpoint::Stage stage;
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    if (i % 3 == 0) continue;  // absent
    ckpt.record(nkeys[i],
                i % 5 == 1 ? Outcome<double>::fail(info)
                           : Outcome<double>::success(0.5 * static_cast<double>(i), 1 + i % 2),
                stage);
  }
  for (std::size_t i = 0; i < wide.size(); ++i) {
    if (i % 4 != 0) ckpt.record(wkeys[i], Outcome<double>::success(-static_cast<double>(i)), stage);
  }
  ckpt.record_failure(std::string("chunk:q"), info, stage);
  ckpt.commit(stage);
  Checkpoint::Stage later;
  ckpt.record(nkeys[1], Outcome<double>::success(99.0), later);  // was a failure
  ckpt.record(nkeys[2], Outcome<double>::fail(info), later);     // was a success
  ckpt.commit(later);

  const auto check = [&](const sizing::ItemKeys& keys, std::size_t begin, std::size_t end) {
    SCOPED_TRACE(std::to_string(begin) + ".." + std::to_string(end));
    std::vector<Outcome<double>> out(end - begin);
    const std::vector<char> found = ckpt.lookup(keys, begin, end, out.data());
    ASSERT_EQ(found.size(), end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      Outcome<double> one;
      const bool held = ckpt.lookup(keys[i], one);
      EXPECT_EQ(found[i - begin] != 0, held) << i;
      EXPECT_EQ(ckpt.contains(keys[i]), held) << i;
      if (!held) continue;
      const Outcome<double>& ranged = out[i - begin];
      EXPECT_EQ(ranged.attempts, one.attempts) << i;
      ASSERT_EQ(ranged.ok(), one.ok()) << i;
      if (one.ok()) {
        EXPECT_EQ(bits(*ranged.value), bits(*one.value)) << i;
      } else {
        EXPECT_EQ(ranged.failure.code, one.failure.code) << i;
        EXPECT_EQ(ranged.failure.site, one.failure.site) << i;
        EXPECT_EQ(ranged.failure.context, one.failure.context) << i;
      }
    }
    EXPECT_EQ(ckpt.lookup<double>(keys, begin, end, nullptr), found);
    EXPECT_TRUE(ckpt.contains(std::string("chunk:q")));
    EXPECT_FALSE(ckpt.contains(std::string("chunk:none")));
  };
  for (int pass = 0; pass < 2; ++pass) {
    check(nkeys, 0, narrow.size());
    check(nkeys, 5, 17);
    check(wkeys, 0, wide.size());
    ckpt.journal().close();  // reads answer from the replayed tables
  }
  std::vector<Outcome<double>> out(3);
  const std::vector<char> found = ckpt.lookup(nkeys, 0, 3, out.data());
  EXPECT_EQ(found, (std::vector<char>{0, 1, 1}));
  EXPECT_EQ(*out[1].value, 99.0);
  EXPECT_EQ(out[2].failure.context, info.context);
}

TEST_F(CheckpointTest, CorruptRecordInARangeIsACodedError) {
  // A CRC-valid record no writer produces (a failure code past
  // kPoisonedItem) amid well-formed records: the range lookup of either
  // type throws the coded error; a range that stops short of it reads.
  Checkpoint ckpt;
  ckpt.open(path());
  const std::vector<VectorPair> pairs = wide_pairs(16, 8);
  const sizing::ItemKeys dkeys(ckpt.context(kDoublePass), pairs);
  const sizing::ItemKeys vkeys(ckpt.context(kDelayPass), pairs);
  Checkpoint::Stage stage;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    VectorDelay vd;
    vd.delay_cmos = static_cast<double>(i);
    ckpt.record(dkeys[i], Outcome<double>::success(static_cast<double>(i)), stage);
    ckpt.record(vkeys[i], Outcome<VectorDelay>::success(vd), stage);
  }
  ckpt.commit(stage);
  util::ItemValue bad;
  bad.attempts = 1;
  bad.code = 200;
  util::JournalBatch batch;
  batch.add(dkeys[9], bad);
  batch.add(vkeys[9], bad);
  ckpt.journal().append_batch(batch);
  const auto expect_corrupt = [](const std::function<void()>& lookup) {
    try {
      lookup();
      ADD_FAILURE() << "range lookup accepted a malformed record";
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.info().code, FailureCode::kInvalidArgument);
    }
  };
  expect_corrupt([&] {
    std::vector<Outcome<double>> out(pairs.size());
    ckpt.lookup(dkeys, 0, pairs.size(), out.data());
  });
  expect_corrupt([&] {
    std::vector<Outcome<VectorDelay>> out(8);
    ckpt.lookup(vkeys, 4, 12, out.data());
  });
  std::vector<Outcome<double>> out(9);
  const std::vector<char> found = ckpt.lookup(dkeys, 0, 9, out.data());
  EXPECT_EQ(std::count(found.begin(), found.end(), 1), 9);
  EXPECT_EQ(*out[8].value, 8.0);
  std::vector<Outcome<VectorDelay>> vout(6);
  EXPECT_EQ(ckpt.lookup(vkeys, 10, 16, vout.data()), std::vector<char>(6, 1));
  EXPECT_EQ(vout[5].value->delay_cmos, 15.0);
}

TEST_F(CheckpointTest, LegacyTextItemJournalIsRefusedUntouched) {
  // A journal from before the item record kind: text item records.  It
  // is refused with a coded error, and not one byte of it changes -- not
  // even the torn tail a killed run leaves, which open() would otherwise
  // truncate.
  const std::string clean =
      util::format_journal_record("meta:backend", "vbs") +
      util::format_journal_record(kDelayPass + "0101-1100",
                                  "ok 1 3ff0000000000000 3ff0000000000000 0000000000000000");
  const std::string next = util::format_journal_record(kDelayPass + "0110-1001", "ok 1 0");
  for (const std::string& legacy : {clean, clean + next.substr(0, next.size() / 2)}) {
    {
      std::ofstream os(path(), std::ios::binary | std::ios::trunc);
      os.write(legacy.data(), static_cast<std::streamsize>(legacy.size()));
    }
    try {
      Checkpoint ckpt;
      ckpt.open(path());
      FAIL() << "a legacy journal was accepted";
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.info().code, FailureCode::kInvalidArgument);
      EXPECT_NE(e.info().context.find("0101-1100"), std::string::npos);
    }
    std::ifstream is(path(), std::ios::binary);
    const std::string after{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
    EXPECT_EQ(after, legacy) << (legacy.size() == clean.size() ? "clean" : "torn tail");
  }
}

TEST_F(CheckpointTest, ContextIdCollisionStopsTheSweepWithACodedError) {
  // A registry record giving this pass's context id to another prefix --
  // a 64-bit hash collision -- must not replay that pass's items.
  const auto adder = make_ripple_adder(tech07(), 1);
  const auto outs = adder_outputs(adder);
  FakeBackend fake(adder.netlist, outs);
  const std::string prefix =
      checkpoint_prefix("rank", fake.name(), netlist_fingerprint(adder.netlist, outs), 10.0);
  const std::uint64_t id = util::fnv1a64(prefix.data(), prefix.size());
  char key[24];
  std::snprintf(key, sizeof(key), "ctx:%016llx", static_cast<unsigned long long>(id));
  Checkpoint ckpt;
  ckpt.open(path());
  ckpt.journal().append(key, kDelayPass);
  EvalSession session;
  session.checkpoint = &ckpt;
  try {
    sizing::rank_vectors(fake, flagged_vectors(4, 999), 10.0, session);
    FAIL() << "a colliding context was accepted";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.info().code, FailureCode::kInvalidArgument);
  }
  EXPECT_EQ(fake.delay_calls.load(), 0);
}

TEST_F(CheckpointTest, MalformedCrcValidRecordsAreRejected) {
  Checkpoint ckpt;
  ckpt.open(path());
  const std::string one = "3ff0000000000000";
  const auto expect_corrupt = [&](const std::string& value, bool delay) {
    SCOPED_TRACE(value);
    ckpt.journal().append("bad", value);  // a whole, checksummed record
    try {
      if (delay) {
        Outcome<VectorDelay> out;
        ckpt.lookup("bad", out);
      } else {
        Outcome<double> out;
        ckpt.lookup("bad", out);
      }
      ADD_FAILURE() << "lookup accepted a malformed record";
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.info().code, FailureCode::kInvalidArgument);
    }
  };
  for (const bool delay : {false, true}) {
    expect_corrupt("ok 1 zz", delay);
    expect_corrupt("ok 1 " + one + " " + one + " " + one + " trailing", delay);
    expect_corrupt("ok 1 " + one + " " + one + " " + one + " ", delay);
    expect_corrupt("ok 1", delay);
    expect_corrupt("ok 1 " + one + " " + one, delay);  // missing field for a delay record
    expect_corrupt("ok +1 " + one + " " + one + " " + one, delay);
    expect_corrupt("ok 1 0x" + one + " 0x" + one + " 0x" + one, delay);
    expect_corrupt("ok 1 0x3ff00000000000 0x3ff00000000000 0x3ff00000000000", delay);
    expect_corrupt("ok 1 " + one.substr(1) + " " + one + " " + one, delay);  // 15 digits
    expect_corrupt("ok  1 " + one + " " + one + " " + one, delay);
    expect_corrupt("ok 1 -" + one.substr(1) + " " + one + " " + one, delay);
    expect_corrupt("okay", delay);
    expect_corrupt("", delay);
  }
  expect_corrupt("ok 1 " + one + " trailing", false);
  expect_corrupt("ok 1 " + one + " " + one, false);  // a delay-shaped value is not a double
}

TEST_F(CheckpointTest, InterruptionArtifactsAreNeverPersisted) {
  FailureInfo cancelled{FailureCode::kCancelled, "sizing::sweep_item", "ctrl-c"};
  FailureInfo engine_budget{FailureCode::kDeadlineExceeded, "spice::transient", "steps"};
  FailureInfo diverged{FailureCode::kNewtonDiverged, "spice::newton", "boom"};
  EXPECT_FALSE(Checkpoint::should_persist(cancelled));
  EXPECT_TRUE(Checkpoint::should_persist(engine_budget));
  EXPECT_TRUE(Checkpoint::should_persist(diverged));

  Checkpoint ckpt;
  ckpt.open(path());
  ckpt.record("c", Outcome<double>::fail(cancelled));
  ckpt.record("d", Outcome<double>::fail(diverged));
  Outcome<double> back;
  EXPECT_FALSE(ckpt.lookup("c", back));
  EXPECT_TRUE(ckpt.lookup("d", back));
}

TEST_F(CheckpointTest, UnarmedCheckpointIsInert) {
  Checkpoint ckpt;  // never opened
  EXPECT_FALSE(ckpt.armed());
  ckpt.record("k", Outcome<double>::success(1.0, 1));
  ckpt.bind_meta("target", "5.0");
  Outcome<double> back;
  EXPECT_FALSE(ckpt.lookup("k", back));
}

// --- Run-configuration guard ---

TEST_F(CheckpointTest, BindMetaRejectsAResumeWithDifferentConfiguration) {
  {
    Checkpoint ckpt;
    ckpt.open(path());
    ckpt.bind_meta("target", "5.0");
    ckpt.bind_meta("target", "5.0");  // identical re-bind is fine
  }
  Checkpoint resumed;
  resumed.open(path());
  resumed.bind_meta("target", "5.0");
  try {
    resumed.bind_meta("target", "7.5");
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.info().code, FailureCode::kInvalidArgument);
    EXPECT_NE(e.info().context.find("target"), std::string::npos);
  }
}

// --- SizingBounds validation (coded, not stringly) ---

TEST_F(CheckpointTest, DegenerateSizingBoundsFailWithInvalidArgument) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const sizing::SizingBounds bad[] = {
      {-1.0, 4000.0, 0.5},                                      // wl_min <= 0
      {0.0, 4000.0, 0.5},                                       // wl_min == 0
      {10.0, 10.0, 0.5},                                        // wl_max == wl_min
      {10.0, 5.0, 0.5},                                         // inverted interval
      {1.0, 4000.0, 0.0},                                       // wl_tol == 0
      {1.0, std::numeric_limits<double>::infinity(), 0.5},      // non-finite
      {std::numeric_limits<double>::quiet_NaN(), 4000.0, 0.5},  // NaN
  };
  for (const auto& bounds : bad) {
    try {
      sizing::size_for_degradation(vbs, vectors, 5.0, bounds);
      FAIL() << "expected NumericalError for wl_min=" << bounds.wl_min
             << " wl_max=" << bounds.wl_max << " wl_tol=" << bounds.wl_tol;
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.info().code, FailureCode::kInvalidArgument);
      EXPECT_EQ(e.info().site, "sizing::size_for_degradation");
    }
  }
}

// --- Replay skips simulation ---

TEST_F(CheckpointTest, ResumedRankReplaysWithoutSimulating) {
  const auto adder = make_ripple_adder(tech07(), 1);
  const auto outs = adder_outputs(adder);
  const auto vectors = flagged_vectors(24, /*slow=*/999);  // no slow item

  std::vector<VectorDelay> first;
  {
    FakeBackend fake(adder.netlist, outs);
    Checkpoint ckpt;
    ckpt.open(path());
    EvalSession session;
    session.checkpoint = &ckpt;
    first = sizing::rank_vectors(fake, vectors, 10.0, session);
    EXPECT_EQ(fake.delay_calls.load(), 24);
    EXPECT_EQ(ckpt.journal().size(), 24u);
  }
  FakeBackend fake(adder.netlist, outs);
  Checkpoint resumed;
  resumed.open(path());
  EXPECT_EQ(resumed.journal().replayed_records(), 24u);
  EvalSession session;
  session.checkpoint = &resumed;
  const auto second = sizing::rank_vectors(fake, vectors, 10.0, session);
  EXPECT_EQ(fake.delay_calls.load(), 0);  // every item replayed from disk
  EXPECT_EQ(fake.baseline_calls.load(), 0);
  EXPECT_TRUE(test::same(second, first));
}

// --- Kill and resume, bit-identically ---

TEST_F(CheckpointTest, KilledRankResumesBitIdenticallyOnVbs) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const auto outs = adder_outputs(adder);
  const VbsBackend vbs(adder.netlist, outs);
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  // "Crash": the journal append of item 100 throws, tearing down the
  // sweep mid-run exactly where a SIGKILL would leave it -- some items
  // journaled, the rest not.
  Checkpoint killed;
  killed.open(path());
  EvalSession session;
  session.checkpoint = &killed;
  faultinject::arm(faultinject::Site::kJournalAppend, /*scope=*/100, /*fail_hits=*/1);
  EXPECT_THROW(sizing::rank_vectors(vbs, vectors, 10.0, session), NumericalError);
  faultinject::disarm_all();
  EXPECT_LT(killed.journal().size(), vectors.size());
  killed.journal().close();

  // Resume against the same journal: results and report are bit-identical
  // to the never-interrupted (and never-checkpointed) run.
  Checkpoint resumed;
  resumed.open(path());
  SweepReport report;
  EvalSession resume_session;
  resume_session.checkpoint = &resumed;
  resume_session.report = &report;
  const auto merged = sizing::rank_vectors(vbs, vectors, 10.0, resume_session);
  EXPECT_EQ(report.succeeded + report.recovered, vectors.size());
  EXPECT_EQ(report.failed, 0u);
  EXPECT_TRUE(test::same(merged, reference));
}

// --- Resume compatibility ---

// Journals from builds that wrote bisection-state and worker heartbeat
// text records still open and resume bit-identically; nothing reads or
// rewrites those records.
TEST_F(CheckpointTest, JournalWithRetiredBisectAndHeartbeatRecordsResumes) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::size_for_degradation(vbs, vectors, 5.0);

  const std::string bisect_key = "bisect:vbs:0123456789abcdef:";
  const std::string bisect_value =
      "bs 3 3ff0000000000000 4059000000000000 4014000000000000 17 9";
  std::size_t items = 0;
  {
    Checkpoint old;
    old.open(path());
    old.journal().append(bisect_key, bisect_value);
    old.journal().append("hb:0", "12");
    EvalSession session;
    session.checkpoint = &old;
    (void)sizing::size_for_degradation(vbs, vectors, 5.0, {}, session);
    items = old.journal().item_count();
  }

  Checkpoint resumed;
  resumed.open(path());
  EvalSession session;
  session.checkpoint = &resumed;
  EXPECT_TRUE(test::same(sizing::size_for_degradation(vbs, vectors, 5.0, {}, session), reference));
  EXPECT_EQ(resumed.journal().item_count(), items);  // every probe replayed
  EXPECT_EQ(resumed.journal().find(bisect_key), bisect_value);
  EXPECT_EQ(resumed.journal().find("hb:0"), "12");
}

// --- Cancellation ---

TEST_F(CheckpointTest, KilledScreeningLosesAtMostOneCommitGroup) {
  // screen_vectors commits in groups of at most 64 items, like every other
  // entry point: on one thread, a crash while staging item 100 drops the
  // open group (items 64..100) and keeps the committed one (items 0..63).
  const auto adder = make_ripple_adder(tech07(), 3);
  const auto all = sizing::all_vector_pairs(6);
  const std::vector<VectorPair> candidates(all.begin(), all.begin() + 512);

  util::ThreadPool serial(1);
  Checkpoint killed;
  killed.open(path());
  EvalSession session;
  session.pool = &serial;
  session.checkpoint = &killed;
  faultinject::arm(faultinject::Site::kJournalAppend, /*scope=*/100, /*fail_hits=*/1);
  EXPECT_THROW(sizing::screen_vectors(adder.netlist, candidates, 16, session), NumericalError);
  faultinject::disarm_all();

  ASSERT_EQ(killed.journal().size(), 64u);
  const std::string prefix =
      checkpoint_prefix_nowl("screen", "logic", netlist_fingerprint(adder.netlist, {}));
  for (std::size_t i = 0; i < 64; ++i) {
    Outcome<double> back;
    ASSERT_TRUE(killed.lookup(checkpoint_item_key(prefix, candidates[i]), back)) << i;
    EXPECT_EQ(*back.value, sizing::falling_discharge_weight(adder.netlist, candidates[i])) << i;
  }
}

TEST_F(CheckpointTest, CancelledItemsAreReportedButNeverJournaled) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);

  util::CancelToken token;
  token.request();  // raised before the sweep starts
  Checkpoint ckpt;
  ckpt.open(path());
  SweepReport report;
  EvalSession session;
  session.cancel_token = &token;
  session.checkpoint = &ckpt;
  session.report = &report;
  const auto ranked = sizing::rank_vectors(vbs, vectors, 10.0, session);
  EXPECT_TRUE(ranked.empty());
  EXPECT_EQ(report.failed, vectors.size());
  for (const auto& [index, failure] : report.failures) {
    EXPECT_EQ(failure.code, FailureCode::kCancelled) << index;
  }
  // Cancellations are interruption artifacts: the journal stays empty, so
  // a resume re-runs every item instead of replaying the Ctrl-C.
  EXPECT_EQ(ckpt.journal().size(), 0u);
}

TEST_F(CheckpointTest, CancelMidSweepCommitsEveryCompletedItem) {
  // The cancel lands inside a commit group on the batch path: the group's
  // remaining items come back kCancelled, and the call must still commit
  // what the group completed before returning, so the journal holds
  // exactly the items the report counts as done.
  const auto adder = make_ripple_adder(tech07(), 1);
  const std::size_t flagged = 10;
  const auto vectors = flagged_vectors(128, flagged);
  BatchFakeBackend fake(adder.netlist, adder_outputs(adder));
  util::CancelToken token;
  fake.hook = [&token](const VectorPair&) { token.request(); };

  util::ThreadPool pool(4);
  Checkpoint ckpt;
  ckpt.open(path());
  SweepReport report;
  EvalSession session;
  session.pool = &pool;
  session.batch = 16;  // eight commit groups of 16 items
  session.cancel_token = &token;
  session.checkpoint = &ckpt;
  session.report = &report;
  (void)sizing::rank_vectors(fake, vectors, 10.0, session);

  ASSERT_TRUE(token.requested());
  EXPECT_EQ(report.recovered, 1u);  // the flagged item, on its scalar retry
  EXPECT_GT(report.failed, 0u);     // the rest of its group at least
  for (const auto& [index, failure] : report.failures) {
    EXPECT_EQ(failure.code, FailureCode::kCancelled) << index;
  }
  EXPECT_EQ(ckpt.journal().size(), report.succeeded + report.recovered);
  Outcome<VectorDelay> back;
  EXPECT_TRUE(ckpt.lookup(
      checkpoint_item_key(checkpoint_prefix("rank", fake.name(),
                                            netlist_fingerprint(adder.netlist, fake.outputs()),
                                            10.0),
                          vectors[flagged]),
      back));
}

TEST_F(CheckpointTest, ResumedBatchedRankPassesOnlyUnjournaledItemsToTheKernel) {
  // Journal the odd items, then rank all of them on a 4-thread pool in
  // chunks of 16: each batch call sees only (and every one of) the even
  // items, once.  A fully journaled rerun makes no batch call at all.
  const auto adder = make_ripple_adder(tech07(), 1);
  const auto outs = adder_outputs(adder);
  const auto vectors = flagged_vectors(128, 999);
  std::vector<VectorPair> odd;
  CountingBatchBackend::Seen even;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    if (i % 2 == 1) {
      odd.push_back(vectors[i]);
    } else {
      even[{vectors[i].v0, vectors[i].v1}] = 1;
    }
  }
  util::ThreadPool pool(4);
  Checkpoint ckpt;
  ckpt.open(path());
  EvalSession session;
  session.pool = &pool;
  session.batch = 16;
  session.checkpoint = &ckpt;
  const CountingBatchBackend warm(adder.netlist, outs);
  EXPECT_EQ(sizing::rank_vectors(warm, odd, 10.0, session).size(), odd.size());

  const CountingBatchBackend resumed(adder.netlist, outs);
  EXPECT_EQ(sizing::rank_vectors(resumed, vectors, 10.0, session).size(), vectors.size());
  EXPECT_EQ(resumed.baseline_seen, even);
  EXPECT_EQ(resumed.sized_seen, even);
  EXPECT_EQ(resumed.empty_calls, 0);

  const CountingBatchBackend replayed(adder.netlist, outs);
  EXPECT_EQ(sizing::rank_vectors(replayed, vectors, 10.0, session).size(), vectors.size());
  EXPECT_EQ(replayed.batch_calls, 0);
}

TEST_F(CheckpointTest, ResumedBatchedSizingPassesOnlyUnjournaledItemsToTheKernel) {
  // The same split for every size_for_degradation probe.  The journaled
  // odd half holds the worst vector (item 127), so both runs bisect
  // through the same W/L probes: each even item reaches both batch calls
  // once per probe, as often as the warm run's items did.
  const auto adder = make_ripple_adder(tech07(), 1);
  const auto outs = adder_outputs(adder);
  const auto vectors = flagged_vectors(128, 999);
  std::vector<VectorPair> odd;
  for (std::size_t i = 1; i < vectors.size(); i += 2) odd.push_back(vectors[i]);
  util::ThreadPool pool(4);
  Checkpoint ckpt;
  ckpt.open(path());
  EvalSession session;
  session.pool = &pool;
  session.batch = 16;
  session.checkpoint = &ckpt;
  const CountingBatchBackend warm(adder.netlist, outs);
  const auto warm_result = sizing::size_for_degradation(warm, odd, 5.0, {}, session);
  const int probes = warm.sized_seen.at({vectors[127].v0, vectors[127].v1});
  ASSERT_GT(probes, 2);

  const CountingBatchBackend resumed(adder.netlist, outs);
  const auto result = sizing::size_for_degradation(resumed, vectors, 5.0, {}, session);
  EXPECT_EQ(result.wl, warm_result.wl);
  CountingBatchBackend::Seen even;
  for (std::size_t i = 0; i < vectors.size(); i += 2) even[{vectors[i].v0, vectors[i].v1}] = probes;
  EXPECT_EQ(resumed.baseline_seen, even);
  EXPECT_EQ(resumed.sized_seen, even);
  EXPECT_EQ(resumed.empty_calls, 0);
  EXPECT_EQ(warm.empty_calls, 0);

  const CountingBatchBackend replayed(adder.netlist, outs);
  EXPECT_EQ(sizing::size_for_degradation(replayed, vectors, 5.0, {}, session).wl, result.wl);
  EXPECT_EQ(replayed.batch_calls, 0);
}

TEST_F(CheckpointTest, AllCancelledSizingSurfacesKCancelled) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  util::CancelToken token;
  token.request();
  EvalSession session;
  session.cancel_token = &token;
  try {
    sizing::size_for_degradation(vbs, sizing::all_vector_pairs(4), 5.0, {}, session);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.info().code, FailureCode::kCancelled);
  }
}

TEST_F(CheckpointTest, RecoveryLadderHonorsThePolicyToken) {
  circuits::InverterTreeOptions topt;
  topt.fanout = 1;
  topt.stages = 2;
  const auto chain = make_inverter_tree(tech07(), topt);
  const std::string leaf = chain.netlist.net_name(chain.leaves[0]);
  util::CancelToken token;
  SpiceBackendOptions sopt;
  sopt.tstop = 8.0 * ns;
  sopt.recovery.cancel = &token;
  const SpiceBackend spice(chain.netlist, {leaf}, sopt);
  const VectorPair vp{{false}, {true}};
  EXPECT_GT(spice.measure_at_wl(vp, 10.0).delay, 0.0);  // token down: normal
  token.request();
  const auto r = spice.measure_at_wl(vp, 20.0);  // uncached W/L
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.failure.code, FailureCode::kCancelled);
}

}  // namespace
}  // namespace mtcmos
