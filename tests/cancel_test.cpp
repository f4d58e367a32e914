// Graceful-shutdown tests (util/cancel.hpp + the session cancellation
// paths): the process-global token raised by real SIGINT/SIGTERM
// delivery, cross-thread cancellation of in-flight sweeps, and draining
// a multi-threaded SpiceBackend sweep mid-run without torn state.
// Labeled `tsan`: the MTCMOS_SANITIZE=thread build runs these to prove
// the signal handler, the token, and the drain are data-race-free.

#include "util/cancel.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuits/generators.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/journal.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

using circuits::make_ripple_adder;
using sizing::EvalSession;
using sizing::SpiceBackend;
using sizing::SpiceBackendOptions;
using sizing::VbsBackend;
using units::ns;

// Every test re-arms the global token on exit so a raised flag cannot
// leak into later tests (default sessions poll it).
class Cancel : public ::testing::Test {
 protected:
  void TearDown() override {
    util::CancelToken::global().reset();
    faultinject::disarm_all();
  }
};

std::vector<std::string> adder_outputs(const circuits::RippleAdder& adder) {
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  return outs;
}

TEST_F(Cancel, TokenRequestIsStickyUntilReset) {
  util::CancelToken token;
  EXPECT_FALSE(token.requested());
  token.request();
  EXPECT_TRUE(token.requested());
  token.request();  // idempotent
  EXPECT_TRUE(token.requested());
  token.reset();
  EXPECT_FALSE(token.requested());
  EXPECT_EQ(&util::CancelToken::global(), &util::CancelToken::global());
}

TEST_F(Cancel, SignalHandlerRaisesTheGlobalToken) {
  util::install_cancel_signal_handlers();
  util::CancelToken::global().reset();
  ASSERT_FALSE(util::CancelToken::global().requested());
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(util::CancelToken::global().requested());
  EXPECT_EQ(util::last_cancel_signal(), SIGTERM);
}

TEST_F(Cancel, CrossThreadCancelDrainsAVbsSweep) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);

  util::CancelToken token;
  util::ThreadPool pool(4);
  SweepReport report;
  EvalSession session;
  session.pool = &pool;
  session.report = &report;
  session.cancel_token = &token;
  std::thread canceller([&session] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    session.cancel();  // the documented cross-thread entry point
  });
  const auto ranked = sizing::rank_vectors(vbs, vectors, 10.0, session);
  canceller.join();
  EXPECT_TRUE(token.requested());
  // The sweep drained: every item is accounted for exactly once, split
  // between completed work and classified cancellations.
  EXPECT_EQ(report.succeeded + report.recovered + report.failed, vectors.size());
  EXPECT_LE(ranked.size(), vectors.size());
  for (const auto& [index, failure] : report.failures) {
    EXPECT_EQ(failure.code, FailureCode::kCancelled) << index;
  }
}

TEST_F(Cancel, SigintDuringMultiThreadedSpiceSweepDrainsCleanly) {
  // The acceptance scenario: a real SIGINT delivered while a 4-thread
  // transistor-level sweep is in flight.  The handler raises the global
  // token (which the default session polls), in-flight items drain, and
  // the partial report classifies what was skipped -- no exception, no
  // torn report, no race.
  util::install_cancel_signal_handlers();
  util::CancelToken::global().reset();

  const auto adder = make_ripple_adder(tech07(), 1);
  SpiceBackendOptions sopt;
  sopt.tstop = 12.0 * ns;
  const SpiceBackend spice(adder.netlist, adder_outputs(adder), sopt);
  const auto vectors = sizing::all_vector_pairs(2);

  util::ThreadPool pool(4);
  SweepReport report;
  EvalSession session;  // default token: the global one SIGINT raises
  session.pool = &pool;
  session.report = &report;
  std::thread signaller([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::raise(SIGINT);
  });
  const auto ranked = sizing::rank_vectors(spice, vectors, 10.0, session);
  signaller.join();
  EXPECT_TRUE(util::CancelToken::global().requested());
  EXPECT_EQ(util::last_cancel_signal(), SIGINT);
  EXPECT_EQ(report.succeeded + report.recovered + report.failed, vectors.size());
  for (const auto& [index, failure] : report.failures) {
    // Items cancelled by the session or inside the recovery ladder; no
    // other failure mode exists in this sweep.
    EXPECT_EQ(failure.code, FailureCode::kCancelled) << index;
  }
  // Ranked entries are only ever fully measured items.
  for (const auto& vd : ranked) {
    EXPECT_GT(vd.delay_cmos, 0.0);
    EXPECT_GT(vd.delay_mtcmos, 0.0);
  }
}

// `prefix` + decimal `n`.  Built by append: GCC 12 at -O3 raises a false
// -Wrestrict on "v" + std::to_string(n).
std::string numbered(const char* prefix, int n) {
  return std::string(prefix).append(std::to_string(n));
}

TEST_F(Cancel, SigtermDuringAppendsLeavesAValidJournal) {
  // The cancel handlers install WITHOUT SA_RESTART, so a SIGTERM landing
  // mid-append can EINTR its write() or fsync().  Both are retried, so
  // every append completes and the journal on disk replays with every
  // latest value intact.  A concurrent SIGTERM during per-record fsyncs
  // (a flush() after each append) gives the signal a window.
  util::install_cancel_signal_handlers();
  util::CancelToken::global().reset();
  const auto dir = test::scratch_dir("cancel_append");
  std::filesystem::create_directories(dir);
  const std::string jpath = (dir / "append.mtj").string();
  {
    util::Journal j;
    j.open(jpath);
    std::thread signaller([] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      std::raise(SIGTERM);
    });
    for (int i = 0; i < 200; ++i) {
      j.append(numbered("key", i % 50), numbered("v", i));
      j.flush();
    }
    signaller.join();
    j.close();
  }
  EXPECT_TRUE(util::CancelToken::global().requested());
  util::Journal replay;
  replay.open(jpath);
  EXPECT_EQ(replay.size(), 50u);
  for (int k = 0; k < 50; ++k) {
    const std::optional<std::string> value = replay.find(numbered("key", k));
    ASSERT_TRUE(value.has_value()) << "key" << k;
    EXPECT_EQ(*value, numbered("v", 150 + k)) << "latest update must survive the signal";
  }
  std::filesystem::remove_all(dir);
}

TEST_F(Cancel, KillDuringBindMetaWriteIsResumable) {
  // A worker dying inside Checkpoint::bind_meta leaves either no meta
  // record (the injected-kill half) or a torn one (the sheared-tail
  // half).  Reopening must truncate the torn tail, rebind the meta
  // cleanly, and resume the sweep to the uninterrupted result.
  const auto dir = test::scratch_dir("cancel_bind_meta");
  std::filesystem::create_directories(dir);
  const std::string cpath = (dir / "meta.mtj").string();

  {
    sizing::Checkpoint ckpt;
    ckpt.open(cpath);
    // Death before the record reaches the journal: the append fault fires
    // ahead of the write, exactly like a SIGKILL between the decision to
    // bind and the disk write.
    faultinject::arm(faultinject::Site::kJournalAppend, faultinject::kAnyScope, 1);
    EXPECT_THROW(ckpt.bind_meta("backend", "vbs"), NumericalError);
    faultinject::disarm_all();
  }
  {
    // Death mid-write: shear the record so only a torn prefix remains.
    const std::string record = util::format_journal_record("meta:backend", "vbs");
    std::ofstream os(cpath, std::ios::binary | std::ios::app);
    os.write(record.data(), static_cast<std::streamsize>(record.size() / 2));
  }

  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  sizing::Checkpoint resumed;
  resumed.open(cpath);
  EXPECT_NO_THROW(resumed.bind_meta("backend", "vbs"));  // torn tail truncated, clean rebind
  EXPECT_THROW(resumed.bind_meta("backend", "spice"), NumericalError);  // guard still guards

  SweepReport report;
  EvalSession session;
  session.checkpoint = &resumed;
  session.report = &report;
  const auto ranked = sizing::rank_vectors(vbs, vectors, 10.0, session);
  EXPECT_EQ(report.failed, 0u);
  ASSERT_EQ(ranked.size(), reference.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].delay_cmos, reference[i].delay_cmos) << i;
    EXPECT_EQ(ranked[i].delay_mtcmos, reference[i].delay_mtcmos) << i;
    EXPECT_EQ(ranked[i].degradation_pct, reference[i].degradation_pct) << i;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mtcmos
