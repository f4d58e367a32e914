// Sharded sweep supervisor: shard planning, the worker line protocol,
// one body call per first life and one per item after a restart,
// deterministic process-level fault injection (SIGKILL, abort, stalled
// heartbeat, torn journal tail), blame from the shard journal alone,
// restart/backoff, poisoned-item quarantine, restart exhaustion,
// cancellation drain of a sharded campaign, planning only what
// the checkpoint lacks, and the store and journal merges -- all asserted
// against the single-process result, which the merged run must match
// bit for bit.  The fault-free sharded run is a contract_test cell.
//
// These tests fork real worker processes, so they carry the
// `faultinject` ctest label rather than `tsan`: ThreadSanitizer cannot
// follow threads started after a multi-threaded fork.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/generators.hpp"
#include "sizing/campaign.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "sizing/supervisor.hpp"
#include "util/cancel.hpp"
#include "util/faultinject.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"
#include "contract.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

using sizing::Checkpoint;
using sizing::EvalSession;
using sizing::SupervisorOptions;
using sizing::VbsBackend;
using sizing::VectorPair;

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_dir("supervisor_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    faultinject::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  SupervisorOptions shard_options(int shards) const {
    SupervisorOptions o;
    o.shards = shards;
    o.dir = (dir_ / "shards").string();
    return o;
  }

  /// A sharded rank as a caller runs one: sharded_rank_vectors fills
  /// `merged` (a fresh merged.mtj when nullptr), then an in-process
  /// rank_vectors on a 1-thread pool replays it.
  struct Sharded {
    std::vector<sizing::VectorDelay> ranked;
    SweepReport report;
    sizing::SupervisorStats stats;
  };
  Sharded sharded_rank(const VbsBackend& vbs, const std::vector<VectorPair>& vectors,
                       const SupervisorOptions& options, Checkpoint* merged = nullptr) const {
    Checkpoint local;
    if (merged == nullptr) {
      local.open((dir_ / "merged.mtj").string());
      merged = &local;
    }
    Sharded out;
    out.stats = sizing::sharded_rank_vectors(vbs, vectors, 10.0, options, *merged);
    util::ThreadPool serial(1);
    EvalSession session;
    session.pool = &serial;
    session.report = &out.report;
    session.checkpoint = merged;
    session.cancel_token = options.cancel_token;
    out.ranked = sizing::rank_vectors(vbs, vectors, 10.0, session);
    return out;
  }

  std::filesystem::path dir_;
};

std::vector<std::string> adder_outputs(const circuits::RippleAdder& adder) {
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  return outs;
}

// Text-keyed items for the tests that drive supervise() with a body of
// their own: item i journals success(i) under "item:<i>".
Checkpoint::Key item_key(std::size_t i) { return Checkpoint::Key("item:" + std::to_string(i)); }

void journal_item(Checkpoint& ckpt, std::size_t i) {
  Checkpoint::Stage stage;
  ckpt.record(item_key(i), Outcome<double>::success(static_cast<double>(i)), stage);
  ckpt.commit(stage);
}

// One line per body call, "<pid> <item>...", appended with one write(),
// so the lines of concurrent workers do not interleave.
struct Call {
  long pid = 0;
  std::vector<std::size_t> items;
};

void log_call(const std::string& path, std::span<const std::size_t> items) {
  std::string line = std::to_string(::getpid());
  for (const std::size_t i : items) line.append(" ").append(std::to_string(i));
  std::ofstream(path, std::ios::app) << line + "\n";
}

std::vector<Call> read_calls(const std::string& path) {
  std::vector<Call> calls;
  std::ifstream is(path);
  for (std::string line; std::getline(is, line);) {
    std::istringstream fields(line);
    Call call;
    fields >> call.pid;
    for (std::size_t i = 0; fields >> i;) call.items.push_back(i);
    calls.push_back(std::move(call));
  }
  return calls;
}

std::vector<std::size_t> iota_items(std::size_t begin, std::size_t end) {
  std::vector<std::size_t> out;
  for (std::size_t i = begin; i < end; ++i) out.push_back(i);
  return out;
}

TEST(PlanShards, ContiguousNearEqualCoverage) {
  const auto shards = sizing::plan_shards(10, 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(shards[1], (std::pair<std::size_t, std::size_t>{4, 7}));
  EXPECT_EQ(shards[2], (std::pair<std::size_t, std::size_t>{7, 10}));
}

TEST(PlanShards, MoreShardsThanItemsCollapses) {
  const auto shards = sizing::plan_shards(2, 8);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0], (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_EQ(shards[1], (std::pair<std::size_t, std::size_t>{1, 2}));
}

TEST(PlanShards, EmptyAndDegenerate) {
  EXPECT_TRUE(sizing::plan_shards(0, 4).empty());
  const auto one = sizing::plan_shards(5, 0);  // shards < 1 clamps to 1
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (std::pair<std::size_t, std::size_t>{0, 5}));
}

TEST(FaultinjectGeneration, PlansPinnedToAGenerationFireOnlyThere) {
  faultinject::disarm_all();
  faultinject::arm_generation(faultinject::Site::kWorkerKill, faultinject::kAnyScope,
                              /*generation=*/1, /*fail_hits=*/1);
  faultinject::set_generation(0);
  EXPECT_FALSE(faultinject::fired(faultinject::Site::kWorkerKill));
  faultinject::set_generation(1);
  EXPECT_TRUE(faultinject::fired(faultinject::Site::kWorkerKill));
  EXPECT_FALSE(faultinject::fired(faultinject::Site::kWorkerKill)) << "hit must be consumed";
  faultinject::disarm_all();
  EXPECT_EQ(faultinject::generation(), 0) << "disarm_all resets the generation";
}

TEST(FaultinjectGeneration, FiredIsScopedLikeCheck) {
  faultinject::disarm_all();
  faultinject::arm_generation(faultinject::Site::kWorkerAbort, /*scope=*/7,
                              faultinject::kAnyGeneration, /*fail_hits=*/1);
  {
    const faultinject::ScopedScope scope(3);
    EXPECT_FALSE(faultinject::fired(faultinject::Site::kWorkerAbort));
  }
  {
    const faultinject::ScopedScope scope(7);
    EXPECT_TRUE(faultinject::fired(faultinject::Site::kWorkerAbort));
  }
  faultinject::disarm_all();
}

TEST(Subprocess, SpawnLineProtocolAndReap) {
  const util::ChildProcess child = util::spawn_child([](int wfd) {
    if (!util::write_line(wfd, "hello")) return 9;
    if (!util::write_line(wfd, "world")) return 9;
    return 42;
  });
  ASSERT_GT(child.pid, 0);
  const util::ExitStatus st = util::reap(child.pid);
  EXPECT_TRUE(st.exited);
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 42);
  util::LineReader reader(child.pipe_fd);
  std::vector<std::string> lines;
  while (reader.poll(lines)) {
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "hello");
  EXPECT_EQ(lines[1], "world");
  util::close_fd(child.pipe_fd);
}

TEST_F(SupervisorTest, SigkilledWorkerRestartsAndMergesBitIdentically) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  // Kill the worker that reaches item 5, on that item's first attempt
  // only: the restarted worker (strike count 1 -> generation 1) must not
  // match the generation-0 plan it re-inherits at fork.
  faultinject::arm_generation(faultinject::Site::kWorkerKill, /*scope=*/5, /*generation=*/0,
                              /*fail_hits=*/1);
  const Sharded sharded = sharded_rank(vbs, vectors, shard_options(3));
  EXPECT_GE(sharded.stats.restarts, 1);
  EXPECT_EQ(sharded.stats.quarantined, 0u);
  EXPECT_EQ(sharded.report.failed, 0u);
  EXPECT_TRUE(test::same(sharded.ranked, reference)) << "SIGKILL at item 5";
}

TEST_F(SupervisorTest, AbortedWorkerRestartsAndMergesBitIdentically) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  faultinject::arm_generation(faultinject::Site::kWorkerAbort, /*scope=*/3, /*generation=*/0,
                              /*fail_hits=*/1);
  const Sharded sharded = sharded_rank(vbs, vectors, shard_options(2));
  EXPECT_GE(sharded.stats.restarts, 1);
  EXPECT_EQ(sharded.stats.quarantined, 0u);
  EXPECT_EQ(sharded.report.failed, 0u);
  EXPECT_TRUE(test::same(sharded.ranked, reference)) << "abort at item 3";
}

TEST_F(SupervisorTest, TornJournalTailIsTruncatedOnRestart) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  // The worker appends half a record to its shard journal, then SIGKILLs
  // itself: the restart's replay must truncate the torn tail and re-run
  // only the unjournaled items.
  faultinject::arm_generation(faultinject::Site::kWorkerTornTail, /*scope=*/9,
                              /*generation=*/0, /*fail_hits=*/1);
  const Sharded sharded = sharded_rank(vbs, vectors, shard_options(3));
  EXPECT_GE(sharded.stats.restarts, 1);
  EXPECT_EQ(sharded.report.failed, 0u);
  EXPECT_TRUE(test::same(sharded.ranked, reference)) << "torn tail at item 9";
}

TEST_F(SupervisorTest, StalledWorkerIsKilledByLivenessTimeoutAndRestarted) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  faultinject::arm_generation(faultinject::Site::kWorkerStall, /*scope=*/2, /*generation=*/0,
                              /*fail_hits=*/1);
  // The stalled worker goes silent; kLivenessTimeoutS later it is killed.
  const Sharded sharded = sharded_rank(vbs, vectors, shard_options(2));
  EXPECT_GE(sharded.stats.stall_kills, 1);
  EXPECT_GE(sharded.stats.restarts, 1);
  EXPECT_EQ(sharded.stats.quarantined, 0u);
  EXPECT_EQ(sharded.report.failed, 0u);
  EXPECT_TRUE(test::same(sharded.ranked, reference)) << "stall at item 2";
}

TEST_F(SupervisorTest, DeterministicKillerIsQuarantinedNotLooped) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const std::size_t killer = 6;
  // The contract is bit-identity with a single-process run in which the
  // quarantined item fails -- i.e. a rank over the input list minus the
  // killer.  (Filtering the killer out of a full-list ranking is NOT
  // equivalent: rank_vectors' sort is unstable on degradation ties, so
  // tie order depends on the sequence fed to the sort.)
  std::vector<VectorPair> pruned = vectors;
  pruned.erase(pruned.begin() + static_cast<std::ptrdiff_t>(killer));
  const auto expected = sizing::rank_vectors(vbs, pruned, 10.0);

  // Item 6 kills its worker on the first attempt (generation 0) and on
  // the restart (generation 1): two strikes = quarantine under
  // kPoisonStrikes.
  faultinject::arm_generation(faultinject::Site::kWorkerKill, static_cast<std::int64_t>(killer),
                              /*generation=*/0, /*fail_hits=*/1);
  faultinject::arm_generation(faultinject::Site::kWorkerKill, static_cast<std::int64_t>(killer),
                              /*generation=*/1, /*fail_hits=*/1);

  Checkpoint merged;
  merged.open((dir_ / "merged.mtj").string());
  const Sharded sharded = sharded_rank(vbs, vectors, shard_options(3), &merged);
  EXPECT_EQ(sharded.stats.quarantined, 1u);
  ASSERT_EQ(sharded.report.failed, 1u);
  EXPECT_EQ(sharded.report.failures[0].first, killer);
  EXPECT_EQ(sharded.report.failures[0].second.code, FailureCode::kPoisonedItem);
  EXPECT_EQ(sharded.report.failures[0].second.site, "sizing::supervisor");
  EXPECT_TRUE(test::same(sharded.ranked, expected)) << "quarantined killer";

  // The quarantine is durable: a fresh in-process pass over the merged
  // journal replays the kPoisonedItem failure without executing the item
  // (the armed kill plans would fire if anything re-ran it in-process --
  // fired() is only consulted by workers, and no worker runs here).
  SweepReport replay_report;
  EvalSession session;
  session.checkpoint = &merged;
  session.report = &replay_report;
  const auto replayed = sizing::rank_vectors(vbs, vectors, 10.0, session);
  ASSERT_EQ(replay_report.failed, 1u);
  EXPECT_EQ(replay_report.failures[0].second.code, FailureCode::kPoisonedItem);
  EXPECT_TRUE(test::same(replayed, expected)) << "replay after quarantine";
}

TEST_F(SupervisorTest, CancellationDrainsWorkersGracefully) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);

  util::CancelToken token;
  token.request();  // cancelled before supervision starts
  SupervisorOptions options = shard_options(2);
  options.cancel_token = &token;
  const Sharded sharded = sharded_rank(vbs, vectors, options);
  EXPECT_TRUE(sharded.stats.cancelled);
  EXPECT_EQ(sharded.stats.quarantined, 0u);
  // The final pass classifies unjournaled items as kCancelled; whatever
  // the workers journaled before draining replays normally.
  EXPECT_EQ(sharded.report.total, vectors.size());
  for (const auto& [index, info] : sharded.report.failures) {
    (void)index;
    EXPECT_EQ(info.code, FailureCode::kCancelled);
  }
}

TEST_F(SupervisorTest, CancelledShardedCampaignDrainsItsWorkers) {
  // Each worker runs its shard as one call, so it must poll the token
  // SIGTERM raises in its own process to stop before its shard ends.  A
  // watcher cancels the run as soon as both workers have opened their
  // shard journals: they drain within a batch chunk, leaving chunks
  // undone, long before kDrainTimeoutS would have them SIGKILLed.
  const auto spec = sizing::CampaignSpec::parse(R"({
    "circuit": "builtin:mult4",
    "target_pct": 10.0,
    "wl_grid": [10, 80],
    "vectors": { "mode": "sampled", "count": 8192, "seed": 7 },
    "chunk": 256
  })");
  std::string reference;
  {
    util::ThreadPool pool(2);
    sizing::CampaignDriver fresh(spec, (dir_ / "fresh").string(), false);
    ASSERT_TRUE(fresh.run(1, nullptr, nullptr, &pool).complete);
    std::ostringstream os;
    fresh.write_table(os);
    reference = os.str();
  }

  using Clock = std::chrono::steady_clock;
  const std::filesystem::path dir = dir_ / "cancelled";
  util::CancelToken token;
  std::atomic<bool> returned{false};
  Clock::time_point cancelled_at;
  {
    sizing::CampaignDriver driver(spec, dir.string(), false);
    std::thread watcher([&] {
      const auto started = [&](const char* shard) { return std::filesystem::exists(dir / shard); };
      while (!returned.load() && !(started("shards/shard0.mtj") && started("shards/shard1.mtj"))) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      cancelled_at = Clock::now();
      token.request();
    });
    util::ThreadPool serial(1);
    const sizing::CampaignStats stats = driver.run(2, nullptr, &token, &serial);
    const Clock::time_point returned_at = Clock::now();
    returned = true;
    watcher.join();
    EXPECT_TRUE(stats.cancelled);
    EXPECT_FALSE(stats.complete) << "the workers ran their whole shards";
    EXPECT_EQ(stats.supervisor.restarts, 0);
    EXPECT_LT(std::chrono::duration<double>(returned_at - cancelled_at).count(),
              sizing::kDrainTimeoutS / 2.0);
  }
  util::ThreadPool pool(2);
  sizing::CampaignDriver resumed(spec, dir.string(), true);
  ASSERT_TRUE(resumed.run(1, nullptr, nullptr, &pool).complete);
  std::ostringstream os;
  resumed.write_table(os);
  EXPECT_EQ(os.str(), reference);
}

TEST_F(SupervisorTest, MergedJournalDropsHeartbeatRecords) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);

  Checkpoint merged;
  merged.open((dir_ / "merged.mtj").string());
  (void)sizing::sharded_rank_vectors(vbs, vectors, 10.0, shard_options(2), merged);
  std::size_t heartbeat_keys = 0;
  merged.journal().for_each([&](const std::string& key, const std::string&) {
    if (key.rfind("hb:", 0) == 0) ++heartbeat_keys;
  });
  EXPECT_EQ(heartbeat_keys, 0u);
}

TEST_F(SupervisorTest, CleanRunLeavesNoShardFile) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  const SupervisorOptions options = shard_options(2);
  const Sharded sharded = sharded_rank(vbs, vectors, options);
  EXPECT_EQ(sharded.stats.workers_spawned, 2);
  EXPECT_TRUE(test::same(sharded.ranked, reference));
  // The merged journal holds every shard record: the shard files are gone.
  EXPECT_TRUE(!std::filesystem::exists(options.dir) || std::filesystem::is_empty(options.dir))
      << options.dir;
}

TEST_F(SupervisorTest, ShardedRunOverAFilledCheckpointSpawnsNoWorker) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  Checkpoint merged;
  merged.open((dir_ / "merged.mtj").string());
  {
    util::ThreadPool serial(1);
    EvalSession session;
    session.pool = &serial;
    session.checkpoint = &merged;
    (void)sizing::rank_vectors(vbs, vectors, 10.0, session);
  }
  const std::size_t before = merged.journal().size();
  const Sharded sharded = sharded_rank(vbs, vectors, shard_options(2), &merged);
  EXPECT_EQ(sharded.stats.workers_spawned, 0);
  EXPECT_EQ(merged.journal().size(), before);
  EXPECT_EQ(sharded.report.failed, 0u);
  EXPECT_TRUE(test::same(sharded.ranked, reference));
}

TEST_F(SupervisorTest, ExhaustedSlotsQuarantineTheirKillersAndLeaveTheRestToTheCaller) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const int shards = 2;
  const auto ranges = sizing::plan_shards(vectors.size(), shards);
  ASSERT_EQ(ranges.size(), 2u);

  // Items 1 and 2 of each shard kill their worker at generations 0 and 1:
  // four deaths, each striking the first item its journal lacks, spend a slot's
  // kMaxRestarts restarts with the rest of its shard still pending.
  std::vector<std::size_t> killers;
  for (const auto& [begin, end] : ranges) {
    for (const std::size_t idx : {begin + 1, begin + 2}) {
      killers.push_back(idx);
      for (const int generation : {0, 1}) {
        faultinject::arm_generation(faultinject::Site::kWorkerKill,
                                    static_cast<std::int64_t>(idx), generation, /*fail_hits=*/1);
      }
    }
  }
  std::vector<VectorPair> pruned;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    if (std::find(killers.begin(), killers.end(), i) == killers.end()) {
      pruned.push_back(vectors[i]);
    }
  }
  const auto expected = sizing::rank_vectors(vbs, pruned, 10.0);

  Checkpoint merged;
  merged.open((dir_ / "merged.mtj").string());
  const sizing::SupervisorStats stats =
      sizing::sharded_rank_vectors(vbs, vectors, 10.0, shard_options(shards), merged);
  EXPECT_EQ(stats.workers_spawned, shards * (1 + sizing::kMaxRestarts));
  EXPECT_EQ(stats.restarts, shards * sizing::kMaxRestarts);
  EXPECT_EQ(stats.strikes, 2 * static_cast<int>(killers.size()));
  EXPECT_EQ(stats.quarantined, killers.size());
  // Each shard journaled its item 0 before the first death; everything
  // after its second killer is left to the caller's pass.
  EXPECT_EQ(stats.abandoned, vectors.size() - 3 * ranges.size());
  const sizing::ItemKeys keys(merged.context(sizing::rank_prefix(vbs, 10.0)), vectors);
  std::size_t journaled = 0;
  for (std::size_t i = 0; i < vectors.size(); ++i) journaled += merged.contains(keys[i]) ? 1 : 0;
  EXPECT_EQ(journaled, vectors.size() - stats.abandoned) << "items and quarantine stamps";

  util::ThreadPool serial(1);
  SweepReport report;
  EvalSession session;
  session.pool = &serial;
  session.report = &report;
  session.checkpoint = &merged;
  const auto ranked = sizing::rank_vectors(vbs, vectors, 10.0, session);
  ASSERT_EQ(report.failed, killers.size());
  for (std::size_t k = 0; k < killers.size(); ++k) {
    EXPECT_EQ(report.failures[k].first, killers[k]);
    EXPECT_EQ(report.failures[k].second.code, FailureCode::kPoisonedItem);
  }
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_TRUE(merged.contains(keys[i])) << "item " << i;
  }
  EXPECT_TRUE(test::same(ranked, expected)) << "killers quarantined, the rest run by the caller";
}

TEST_F(SupervisorTest, ResumingAMergedCampaignSkipsAllWork) {
  const auto adder = circuits::make_ripple_adder(tech07(), 2);
  const VbsBackend vbs(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const auto reference = sizing::rank_vectors(vbs, vectors, 10.0);

  const std::string merged_path = (dir_ / "merged.mtj").string();
  {
    Checkpoint merged;
    merged.open(merged_path);
    (void)sizing::sharded_rank_vectors(vbs, vectors, 10.0, shard_options(3), merged);
  }
  // A second sharded run against the same merged journal finds every item
  // journaled: no worker spawns and nothing is re-simulated.
  Checkpoint merged;
  merged.open(merged_path);
  const std::size_t before = merged.journal().size();
  const Sharded again = sharded_rank(vbs, vectors, shard_options(3), &merged);
  EXPECT_EQ(again.stats.workers_spawned, 0);
  EXPECT_EQ(merged.journal().size(), before);
  EXPECT_EQ(again.report.failed, 0u);
  EXPECT_TRUE(test::same(again.ranked, reference)) << "resumed campaign";
}

TEST_F(SupervisorTest, DeathAfterJournalingTheLastItemIsNoStrikeAndNoRestart) {
  // The worker dies after its last item's outcome reached the shard
  // journal.  The parent must find that outcome in the journal it
  // reopens: no strike, and nothing pending, so no restart.
  const std::string prefix = "test:vbs:0:";
  const auto vectors = sizing::all_vector_pairs(1);
  const std::size_t last = vectors.size() - 1;
  const std::string died = (dir_ / "died").string();
  Checkpoint merged;
  merged.open((dir_ / "merged.mtj").string());
  const sizing::ItemKeys keys(merged.context(prefix), vectors);

  const sizing::SupervisorStats stats = sizing::supervise(
      shard_options(1), vectors.size(),
      [&](std::span<const std::size_t> items, Checkpoint& ckpt, util::ColumnarWriter*) {
        const sizing::ItemKeys worker_keys(ckpt.context(prefix), vectors);
        for (const std::size_t idx : items) {
          Checkpoint::Stage stage;
          ckpt.record(worker_keys[idx], Outcome<double>::success(static_cast<double>(idx)), stage);
          ckpt.commit(stage);
          if (idx == last && !std::filesystem::exists(died)) {
            std::ofstream(died) << "1";
            ::raise(SIGKILL);
          }
        }
      },
      [&](std::size_t idx) { return Checkpoint::Key(keys[idx]); }, merged);
  EXPECT_TRUE(std::filesystem::exists(died));
  EXPECT_EQ(stats.strikes, 0);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.workers_spawned, 1);
  EXPECT_EQ(stats.abandoned, 0u);
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    Outcome<double> out;
    ASSERT_TRUE(merged.lookup(keys[i], out)) << "item " << i;
    ASSERT_TRUE(out.ok()) << "item " << i;
    EXPECT_EQ(*out.value, static_cast<double>(i));
  }
}

TEST_F(SupervisorTest, CleanFirstLifeRunsItsPendingAssignmentInOneCall) {
  // Items 0 and 5 are journaled already, so only the other ten are
  // planned; each worker's one body call holds its whole shard of them.
  const std::size_t n = 12;
  Checkpoint merged;
  merged.open((dir_ / "merged.mtj").string());
  journal_item(merged, 0);
  journal_item(merged, 5);
  std::vector<std::size_t> todo;
  for (const std::size_t i : iota_items(0, n)) {
    if (i != 0 && i != 5) todo.push_back(i);
  }
  const std::string log = (dir_ / "calls").string();
  const sizing::SupervisorStats stats = sizing::supervise(
      shard_options(2), n,
      [&](std::span<const std::size_t> items, Checkpoint& ckpt, util::ColumnarWriter*) {
        log_call(log, items);
        for (const std::size_t i : items) journal_item(ckpt, i);
      },
      item_key, merged);
  EXPECT_EQ(stats.workers_spawned, 2);
  EXPECT_EQ(stats.restarts, 0);

  std::vector<std::vector<std::size_t>> calls;
  for (const Call& call : read_calls(log)) calls.push_back(call.items);
  std::sort(calls.begin(), calls.end());
  std::vector<std::vector<std::size_t>> want;
  for (const auto& [begin, end] : sizing::plan_shards(todo.size(), 2)) {
    want.emplace_back(todo.begin() + static_cast<std::ptrdiff_t>(begin),
                      todo.begin() + static_cast<std::ptrdiff_t>(end));
  }
  EXPECT_EQ(calls, want);
  for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(merged.contains(item_key(i))) << "item " << i;
}

TEST_F(SupervisorTest, RestartedLifeRunsOneItemPerCall) {
  // The first life dies once in item 2 of its one call, having journaled
  // items 0 and 1.  That death blames nobody, and the restart runs the
  // rest one item per call, in order.
  const std::size_t n = 6;
  const std::size_t dies_at = 2;
  const std::string died = (dir_ / "died").string();
  const std::string log = (dir_ / "calls").string();
  Checkpoint merged;
  merged.open((dir_ / "merged.mtj").string());
  const sizing::SupervisorStats stats = sizing::supervise(
      shard_options(1), n,
      [&](std::span<const std::size_t> items, Checkpoint& ckpt, util::ColumnarWriter*) {
        log_call(log, items);
        for (const std::size_t i : items) {
          if (i == dies_at && !std::filesystem::exists(died)) {
            std::ofstream(died) << "1";
            ::raise(SIGKILL);
          }
          journal_item(ckpt, i);
        }
      },
      item_key, merged);
  EXPECT_EQ(stats.workers_spawned, 2);
  EXPECT_EQ(stats.restarts, 1);
  EXPECT_EQ(stats.strikes, 0);
  EXPECT_EQ(stats.quarantined, 0u);

  const std::vector<Call> calls = read_calls(log);
  ASSERT_EQ(calls.size(), 1 + n - dies_at);
  EXPECT_EQ(calls[0].items, iota_items(0, n));
  for (std::size_t k = 1; k < calls.size(); ++k) {
    EXPECT_NE(calls[k].pid, calls[0].pid) << "call " << k;
    EXPECT_EQ(calls[k].items, iota_items(dies_at + k - 1, dies_at + k)) << "call " << k;
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(merged.contains(item_key(i))) << "item " << i;
}

TEST_F(SupervisorTest, KillerWithNoFaultPlanIsFoundByTheRestartsAndQuarantined) {
  // Item 3 SIGKILLs its worker in any call, and no kWorker* plan is armed.
  // The one-call first life blames nobody; the two item-by-item lives
  // after it die in item 3, the first item their journal lacks, and
  // strike it twice; the last life runs the rest.
  const std::size_t n = 6;
  const std::size_t killer = 3;
  Checkpoint merged;
  merged.open((dir_ / "merged.mtj").string());
  const sizing::SupervisorStats stats = sizing::supervise(
      shard_options(1), n,
      [&](std::span<const std::size_t> items, Checkpoint& ckpt, util::ColumnarWriter*) {
        for (const std::size_t i : items) {
          if (i == killer) ::raise(SIGKILL);
          journal_item(ckpt, i);
        }
      },
      item_key, merged);
  EXPECT_EQ(stats.strikes, 2);
  EXPECT_EQ(stats.restarts, 3);
  EXPECT_EQ(stats.workers_spawned, 4);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.abandoned, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    Outcome<double> out;
    ASSERT_TRUE(merged.lookup(item_key(i), out)) << "item " << i;
    if (i == killer) {
      ASSERT_FALSE(out.ok());
      EXPECT_EQ(out.failure.code, FailureCode::kPoisonedItem);
      EXPECT_EQ(out.failure.attempts, 2);
    } else {
      ASSERT_TRUE(out.ok()) << "item " << i;
      EXPECT_EQ(*out.value, static_cast<double>(i));
    }
  }
}

TEST_F(SupervisorTest, ShardStoreThatCannotMergeLeavesNoRecordOfItsRows) {
  // Each worker chunk syncs its block, then journals its chunk record, and
  // then the test swaps its shard store for a directory, which the parent
  // cannot merge.  The run must fail before any shard record reaches the
  // caller's checkpoint: a record there would tell a resume that rows the
  // store lacks are done.
  Checkpoint merged;
  merged.open((dir_ / "merged.mtj").string());
  util::ColumnarWriter store;
  store.open((dir_ / "merged.mtc").string());
  const auto key_of = [](std::size_t c) { return Checkpoint::Key("chunk:" + std::to_string(c)); };
  const auto run = [&](std::span<const std::size_t> chunks, Checkpoint& ckpt,
                       util::ColumnarWriter* columnar) {
    for (const std::size_t c : chunks) {
      const double row = static_cast<double>(c);
      columnar->set_tag(c);
      columnar->append("row" + std::to_string(c), &row, 1);
      columnar->sync();
      ckpt.record(key_of(c).text, Outcome<double>::success(1.0));
      std::filesystem::remove(columnar->path());
      std::filesystem::create_directory(columnar->path());
    }
  };
  EXPECT_THROW(sizing::supervise(shard_options(1), 2, run, key_of, merged, &store),
               std::runtime_error);
  EXPECT_FALSE(merged.contains(key_of(0)));
  EXPECT_FALSE(merged.contains(key_of(1)));
}

}  // namespace
}  // namespace mtcmos
