// Crash/resume soak: kill checkpointed sweeps at randomized journal
// offsets (via the fault-injection kill switch on the journal append
// path), optionally shear random byte counts off the journal tail (the
// torn record a SIGKILL mid-write leaves), resume, and require the
// merged result to be bit-identical to an uninterrupted run -- on both
// the switch-level and the transistor-level backend, including repeated
// kills of the same journal.
//
// Deliberately heavier than the unit suite: registered under the `soak`
// ctest configuration (ctest -C soak) so plain `ctest` skips it.  The
// RNG seed is fixed; every run exercises the same kill schedule.

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "sizing/supervisor.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
#include "contract.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

using sizing::Checkpoint;
using sizing::EvalBackend;
using sizing::EvalSession;
using sizing::SpiceBackend;
using sizing::SpiceBackendOptions;
using sizing::VbsBackend;
using sizing::VectorDelay;
using sizing::VectorPair;
using units::ns;

class CrashResumeSoak : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_dir("crash_resume_soak");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    faultinject::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  std::string journal_path(int round) const {
    return (dir_ / ("round" + std::to_string(round) + ".mtj")).string();
  }

  std::filesystem::path dir_;
};

std::vector<std::string> adder_outputs(const circuits::RippleAdder& adder) {
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  return outs;
}

/// A supervised rank as a caller runs one: sharded_rank_vectors fills
/// options.dir/merged.mtj, then an in-process rank_vectors on a 1-thread
/// pool replays it into `report`.
std::vector<VectorDelay> supervised_rank(const EvalBackend& backend,
                                         const std::vector<VectorPair>& vectors,
                                         const sizing::SupervisorOptions& options,
                                         sizing::SupervisorStats& stats, SweepReport& report) {
  std::filesystem::create_directories(options.dir);
  Checkpoint merged;
  merged.open(options.dir + "/merged.mtj");
  stats = sizing::sharded_rank_vectors(backend, vectors, 10.0, options, merged);
  util::ThreadPool serial(1);
  EvalSession session;
  session.pool = &serial;
  session.report = &report;
  session.checkpoint = &merged;
  return sizing::rank_vectors(backend, vectors, 10.0, session);
}

/// Kill one checkpointed rank_vectors at `kill_scope` (the journal append
/// of that item index throws, tearing the sweep down mid-run).  Returns
/// false when the kill never fired (the plan outlived the sweep -- e.g. a
/// second kill aimed at an item the journal already holds).
bool killed_rank(const EvalBackend& backend, const std::vector<VectorPair>& vectors, double wl,
                 const std::string& journal, std::int64_t kill_scope) {
  Checkpoint ckpt;
  ckpt.open(journal);
  EvalSession session;
  session.checkpoint = &ckpt;
  faultinject::arm(faultinject::Site::kJournalAppend, kill_scope, /*fail_hits=*/1);
  bool fired = true;
  try {
    (void)sizing::rank_vectors(backend, vectors, wl, session);
    fired = false;  // every targeted append was already journaled
  } catch (const NumericalError&) {
  }
  faultinject::disarm_all();
  return fired;
}

/// Shear `bytes` off the end of the journal file: the torn tail a hard
/// kill leaves mid-write.  Replay on the next open truncates back to the
/// last whole record.
void shear_tail(const std::string& journal, std::uintmax_t bytes) {
  const std::uintmax_t size = std::filesystem::file_size(journal);
  if (bytes >= size) bytes = size;
  std::filesystem::resize_file(journal, size - bytes);
}

std::vector<VectorDelay> resumed_rank(const EvalBackend& backend,
                                      const std::vector<VectorPair>& vectors, double wl,
                                      const std::string& journal, SweepReport* report) {
  Checkpoint ckpt;
  ckpt.open(journal);
  EvalSession session;
  session.checkpoint = &ckpt;
  session.report = report;
  return sizing::rank_vectors(backend, vectors, wl, session);
}

TEST_F(CrashResumeSoak, RandomizedKillOffsetsMergeBitIdenticallyOnVbs) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  std::mt19937 rng(20260806u);
  std::uniform_int_distribution<std::int64_t> scope_of(0,
                                                       static_cast<std::int64_t>(vectors.size()) -
                                                           1);
  std::uniform_int_distribution<std::uintmax_t> shear_of(0, 120);
  for (int round = 0; round < 16; ++round) {
    const std::string journal = journal_path(round);
    const std::int64_t scope = scope_of(rng);
    ASSERT_TRUE(killed_rank(vbs, vectors, 10.0, journal, scope)) << "round " << round;
    // Half the rounds also lose a random tail chunk, as a kill mid-write
    // would; replay must truncate back to a whole record and carry on.
    if (round % 2 == 1) shear_tail(journal, shear_of(rng));
    SweepReport report;
    const auto merged = resumed_rank(vbs, vectors, 10.0, journal, &report);
    EXPECT_EQ(report.succeeded + report.recovered, vectors.size()) << "round " << round;
    EXPECT_EQ(report.failed, 0u) << "round " << round;
    EXPECT_TRUE(test::same(merged, reference)) << "round " << round;
  }
}

TEST_F(CrashResumeSoak, RepeatedKillsOfOneJournalStillMerge) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  std::mt19937 rng(7u);
  std::uniform_int_distribution<std::int64_t> scope_of(0,
                                                       static_cast<std::int64_t>(vectors.size()) -
                                                           1);
  const std::string journal = journal_path(0);
  // Crash the same run five times at five different points before letting
  // it finish: each resume extends the journal monotonically.
  std::size_t journaled = 0;
  for (int kill = 0; kill < 5; ++kill) {
    (void)killed_rank(vbs, vectors, 10.0, journal, scope_of(rng));
    Checkpoint probe;
    probe.open(journal);
    EXPECT_GE(probe.journal().size(), journaled) << "kill " << kill;
    journaled = probe.journal().size();
  }
  SweepReport report;
  const auto merged = resumed_rank(vbs, vectors, 10.0, journal, &report);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_TRUE(test::same(merged, reference)) << "after 5 kills";
}

TEST_F(CrashResumeSoak, RandomizedKillOffsetsMergeBitIdenticallyOnSpice) {
  const auto adder = circuits::make_ripple_adder(tech07(), 1);
  const auto outs = adder_outputs(adder);
  SpiceBackendOptions sopt;
  sopt.tstop = 12.0 * ns;
  const SpiceBackend spice(adder.netlist, outs, sopt);
  const auto vectors = sizing::all_vector_pairs(2);
  const auto reference = sizing::rank_vectors(spice, vectors, 10.0);

  std::mt19937 rng(97u);
  std::uniform_int_distribution<std::int64_t> scope_of(0,
                                                       static_cast<std::int64_t>(vectors.size()) -
                                                           1);
  std::uniform_int_distribution<std::uintmax_t> shear_of(0, 120);
  for (int round = 0; round < 6; ++round) {
    const std::string journal = journal_path(round);
    ASSERT_TRUE(killed_rank(spice, vectors, 10.0, journal, scope_of(rng))) << "round " << round;
    if (round % 2 == 1) shear_tail(journal, shear_of(rng));
    SweepReport report;
    const auto merged = resumed_rank(spice, vectors, 10.0, journal, &report);
    EXPECT_EQ(report.failed, 0u) << "round " << round;
    EXPECT_TRUE(test::same(merged, reference)) << "round " << round;
  }
}

TEST_F(CrashResumeSoak, KilledSizingBisectionResumesToTheSameResult) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::size_for_degradation(vbs, vectors, 5.0);

  std::mt19937 rng(11u);
  std::uniform_int_distribution<std::int64_t> scope_of(0,
                                                       static_cast<std::int64_t>(vectors.size()) -
                                                           1);
  for (int round = 0; round < 8; ++round) {
    const std::string journal = journal_path(round);
    {
      Checkpoint ckpt;
      ckpt.open(journal);
      EvalSession session;
      session.checkpoint = &ckpt;
      faultinject::arm(faultinject::Site::kJournalAppend, scope_of(rng), /*fail_hits=*/1);
      EXPECT_THROW(sizing::size_for_degradation(vbs, vectors, 5.0, {}, session),
                   NumericalError)
          << "round " << round;
      faultinject::disarm_all();
    }
    Checkpoint resumed;
    resumed.open(journal);
    EvalSession session;
    session.checkpoint = &resumed;
    const auto merged = sizing::size_for_degradation(vbs, vectors, 5.0, {}, session);
    EXPECT_EQ(merged.wl, reference.wl) << "round " << round;
    EXPECT_EQ(merged.degradation_pct, reference.degradation_pct) << "round " << round;
    EXPECT_EQ(merged.binding_vector.v0, reference.binding_vector.v0) << "round " << round;
    EXPECT_EQ(merged.binding_vector.v1, reference.binding_vector.v1) << "round " << round;
  }
}

TEST_F(CrashResumeSoak, ReopenBetweenKillsDoesNotDisturbResume) {
  // Interleave crash/resume with journal reopens: kill a sweep, shear a
  // random tail chunk off every other kill, replay the survivor journal
  // (truncating the torn tail) and replay it again, and keep going.  A
  // reopen must never lose a journaled item or disturb the final
  // bit-identical merge.
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  std::mt19937 rng(31u);
  std::uniform_int_distribution<std::int64_t> scope_of(0,
                                                       static_cast<std::int64_t>(vectors.size()) -
                                                           1);
  std::uniform_int_distribution<std::uintmax_t> shear_of(1, 120);
  const std::string journal = journal_path(0);
  for (int kill = 0; kill < 5; ++kill) {
    (void)killed_rank(vbs, vectors, 10.0, journal, scope_of(rng));
    if (kill % 2 == 1) shear_tail(journal, shear_of(rng));
    std::size_t before = 0;
    {
      Checkpoint survivor;
      survivor.open(journal);
      before = survivor.journal().size();
    }
    Checkpoint again;
    again.open(journal);
    EXPECT_EQ(again.journal().size(), before) << "kill " << kill;
    EXPECT_EQ(again.journal().truncated_bytes(), 0u) << "kill " << kill;
  }
  SweepReport report;
  const auto merged = resumed_rank(vbs, vectors, 10.0, journal, &report);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_TRUE(test::same(merged, reference)) << "reopen between kills";
}

// ---------------------------------------------------------------------------
// Supervised (multi-process) rounds: the PR7 acceptance scenario.  Worker
// processes are SIGKILLed at randomized item offsets via the kWorkerKill
// fault site; the supervisor restarts them, merges the shard journals, and
// the result must be bit-identical to a single-process single-thread run.

TEST_F(CrashResumeSoak, SupervisedSweepSurvivesRandomizedWorkerSigkills) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  std::mt19937 rng(20260807u);
  std::uniform_int_distribution<std::int64_t> scope_of(0,
                                                       static_cast<std::int64_t>(vectors.size()) -
                                                           1);
  std::uniform_int_distribution<int> shard_of(2, 4);
  for (int round = 0; round < 12; ++round) {
    // One to three distinct items whose first attempt SIGKILLs its worker
    // (generation 0 only, so restarts survive -- the restarted worker runs
    // at generation = strike count 1).
    const int kills = 1 + round % 3;
    for (int k = 0; k < kills; ++k) {
      faultinject::arm_generation(faultinject::Site::kWorkerKill, scope_of(rng),
                                  /*generation=*/0, /*fail_hits=*/1);
    }
    sizing::SupervisorOptions options;
    options.shards = shard_of(rng);
    options.dir = (dir_ / ("supervised" + std::to_string(round))).string();
    sizing::SupervisorStats stats;
    SweepReport report;
    const auto ranked = supervised_rank(vbs, vectors, options, stats, report);
    faultinject::disarm_all();
    EXPECT_EQ(stats.quarantined, 0u) << "round " << round;
    EXPECT_EQ(report.failed, 0u) << "round " << round;
    EXPECT_TRUE(test::same(ranked, reference)) << "supervised round " << round;
  }
}

TEST_F(CrashResumeSoak, SupervisedSweepQuarantinesDeterministicKillers) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);

  std::mt19937 rng(43u);
  std::uniform_int_distribution<std::int64_t> scope_of(0,
                                                       static_cast<std::int64_t>(vectors.size()) -
                                                           1);
  for (int round = 0; round < 6; ++round) {
    // An item that kills its worker on every attempt: strikes at
    // generations 0 and 1 reach kPoisonStrikes, so the
    // supervisor must quarantine it instead of looping restarts.
    const std::int64_t killer = scope_of(rng);
    faultinject::arm_generation(faultinject::Site::kWorkerKill, killer, /*generation=*/0,
                                /*fail_hits=*/1);
    faultinject::arm_generation(faultinject::Site::kWorkerKill, killer, /*generation=*/1,
                                /*fail_hits=*/1);
    sizing::SupervisorOptions options;
    options.shards = 3;
    options.dir = (dir_ / ("poison" + std::to_string(round))).string();
    sizing::SupervisorStats stats;
    SweepReport report;
    const auto ranked = supervised_rank(vbs, vectors, options, stats, report);
    faultinject::disarm_all();
    EXPECT_EQ(stats.quarantined, 1u) << "round " << round;
    ASSERT_EQ(report.failed, 1u) << "round " << round;
    EXPECT_EQ(report.failures[0].first, static_cast<std::size_t>(killer)) << "round " << round;
    EXPECT_EQ(report.failures[0].second.code, FailureCode::kPoisonedItem) << "round " << round;
    // Bit-identity with a single-process run over the same surviving set.
    std::vector<VectorPair> pruned = vectors;
    pruned.erase(pruned.begin() + static_cast<std::ptrdiff_t>(killer));
    const auto expected = sizing::rank_vectors(vbs, pruned, 10.0);
    EXPECT_TRUE(test::same(ranked, expected)) << "poison round " << round;
  }
}

}  // namespace
}  // namespace mtcmos
