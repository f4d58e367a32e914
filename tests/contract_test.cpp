// The bit-identity contracts as one table: scalar == batch; serial ==
// threaded == sharded (where items run never changes what they return, nor
// which thread emits rows); fresh == resumed (a sweep killed mid-journal,
// or a cancelled campaign, resumes to the uninterrupted result and
// journal, and a rerun over a finished journal calls no backend).
//
// Rows are the entry points, columns the contracts.  A row returns one
// value holding every output bit: the result, every row it streamed (with
// its key) and its SweepReport; a campaign's table and store.  Each cell
// compares it with the row's reference run (one thread, batch = 1, a fresh
// journal) and is its own test case, Matrix/Contract.Holds/<row>_<column>.
// An inapplicable cell names its reason in kRows.
//
// Every run uses a pool of its own, joined before the cell goes on, never
// the global pool: no pool thread is alive when a sharded cell forks, even
// with the whole binary run as one process (TSan cannot follow a fork
// from a threaded process).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "circuits/generators.hpp"
#include "sizing/campaign.hpp"
#include "sizing/result_sink.hpp"
#include "sizing/sizing.hpp"
#include "util/faultinject.hpp"
#include "contract.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

using sizing::CampaignDriver;
using sizing::CampaignStats;
using sizing::Checkpoint;
using sizing::EvalBackend;
using sizing::EvalSession;
using sizing::VectorPair;
using test::Lines;

constexpr double kWl = 10.0;

// --- The rows -------------------------------------------------------------

/// Keeps every emitted row with its key, counting the rows that arrive
/// without a key or off the thread that created the recorder.
class KeyedRecorder final : public sizing::ResultSink {
 public:
  bool wants_keys() const override { return true; }
  void on_delay(const std::string& key, const sizing::VectorDelay& row) override {
    add(key, test::lines(row).front());
  }
  void on_value(const std::string& key, double value) override { add(key, test::hex(value)); }

  Lines rows;
  std::size_t off_thread = 0;
  std::size_t unkeyed = 0;

 private:
  void add(const std::string& key, const std::string& row) {
    const std::lock_guard<std::mutex> lock(mutex_);  // a sink called off-thread still counts
    off_thread += std::this_thread::get_id() != caller_;
    unkeyed += key.empty();
    rows.push_back(key + ' ' + row);
  }

  std::mutex mutex_;
  const std::thread::id caller_ = std::this_thread::get_id();
};

/// `entry`'s result lines under `session` with a KeyedRecorder attached,
/// then every row it streamed: `want_rows` of them (0: at least one), all
/// keyed, all from the calling thread.
template <typename Entry>
Lines with_rows(const EvalSession& session, std::size_t want_rows, const Entry& entry) {
  KeyedRecorder sink;
  EvalSession with_sink = session;
  with_sink.sink = &sink;
  Lines out = entry(with_sink);
  EXPECT_TRUE(want_rows > 0 ? sink.rows.size() == want_rows : !sink.rows.empty())
      << sink.rows.size() << " rows";
  EXPECT_EQ(sink.unkeyed, 0u);
  test::append(out, sink.rows);
  out.push_back("off-thread rows " + std::to_string(sink.off_thread));
  return out;
}

using SweepFn = Lines (*)(const EvalBackend&, const std::vector<VectorPair>&,
                          const EvalSession&);

Lines rank(const EvalBackend& b, const std::vector<VectorPair>& pairs, const EvalSession& s) {
  return test::lines(sizing::rank_vectors(b, pairs, kWl, s));
}

Lines stream(const EvalBackend& b, const std::vector<VectorPair>& pairs, const EvalSession& s) {
  // The stream holds the non-switching rows rank_vectors drops.
  return with_rows(s, pairs.size(), [&](const EvalSession& ws) {
    return Lines{"returned " + std::to_string(sizing::rank_vectors_stream(b, pairs, kWl, ws))};
  });
}

Lines size(const EvalBackend& b, const std::vector<VectorPair>& pairs, const EvalSession& s) {
  return with_rows(s, 0, [&](const EvalSession& ws) {
    return test::lines(sizing::size_for_degradation(b, pairs, 5.0, {}, ws));
  });
}

Lines search(const EvalBackend& b, const std::vector<VectorPair>&, const EvalSession& s) {
  return with_rows(s, 0, [&](const EvalSession& ws) {
    Rng rng(42);
    return test::lines(sizing::search_worst_vector(b, kWl, 40, rng, ws));
  });
}

Lines screen(const EvalBackend& b, const std::vector<VectorPair>& pairs, const EvalSession& s) {
  return with_rows(s, pairs.size(), [&](const EvalSession& ws) {
    return test::lines(sizing::screen_vectors(b.netlist(), pairs, 25, ws));
  });
}

// --- The table ------------------------------------------------------------

enum Column { kBatch0, kBatch7, kPool1, kPool2, kPool4, kPool8, kSharded, kResumed, kReplayed };
constexpr std::array<const char*, 9> kColumnNames = {
    "batch0", "batch7", "pool1", "pool2", "pool4", "pool8", "sharded", "resumed", "replayed"};

enum class Subject { kAdder, kSpiceChain, kCampaign };

struct Row {
  const char* name;
  Subject subject;
  SweepFn run;           ///< nullptr for the campaign
  std::int64_t kill_at;  ///< the resumed cell's failing journal append (item index)
  std::array<const char*, kColumnNames.size()> skip;  ///< nullptr: runs; else why not
};

constexpr const char* kRuns = nullptr;
constexpr const char* kNoShard = "only rank and campaigns shard";
constexpr const char* kNoKernel = "screen has no kernel";
constexpr const char* kSpiceNoBatch = "SpiceBackend has no batch kernel";
constexpr const char* kNoBatch = "a campaign has no batch setting; its chunks run the rank path";

// clang-format off
const Row kRows[] = {
  //                                          batch0         batch7         pool1  pool2  pool4  pool8  sharded   resumed replayed
  {"rank",       Subject::kAdder,      &rank,   5, {kRuns,         kRuns,         kRuns, kRuns, kRuns, kRuns, kRuns,    kRuns,  kRuns}},
  {"stream",     Subject::kAdder,      &stream, 5, {kRuns,         kRuns,         kRuns, kRuns, kRuns, kRuns, kNoShard, kRuns,  kRuns}},
  {"size",       Subject::kAdder,      &size,   5, {kRuns,         kRuns,         kRuns, kRuns, kRuns, kRuns, kNoShard, kRuns,  kRuns}},
  {"search",     Subject::kAdder,      &search, 5, {kRuns,         kRuns,         kRuns, kRuns, kRuns, kRuns, kNoShard, kRuns,  kRuns}},
  {"screen",     Subject::kAdder,      &screen, 5, {kNoKernel,     kNoKernel,     kRuns, kRuns, kRuns, kRuns, kNoShard, kRuns,  kRuns}},
  {"rank_spice", Subject::kSpiceChain, &rank,   2, {kSpiceNoBatch, kSpiceNoBatch, kRuns, kRuns, kRuns, kRuns, kRuns,    kRuns,  kRuns}},
  {"campaign",   Subject::kCampaign,   nullptr, 0, {kNoBatch,      kNoBatch,      kRuns, kRuns, kRuns, kRuns, kRuns,    kRuns,  kRuns}},
};
// clang-format on

struct Cell {
  std::size_t row;
  Column column;
};

std::vector<Cell> applicable_cells() {
  std::vector<Cell> cells;
  for (std::size_t r = 0; r < std::size(kRows); ++r) {
    for (std::size_t c = 0; c < kColumnNames.size(); ++c) {
      if (kRows[r].skip[c] == kRuns) cells.push_back({r, static_cast<Column>(c)});
    }
  }
  return cells;
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return std::string(kRows[info.param.row].name) + "_" + kColumnNames[info.param.column];
}

// --- The subjects ---------------------------------------------------------

struct Sweep {
  std::unique_ptr<sizing::Evaluator> eval;
  std::vector<VectorPair> pairs;
};

/// The 2-bit ripple adder on VBS, its 256 transitions in a seeded shuffle
/// (no-op lanes among switching ones, so a resume re-forms its batches
/// from a ragged remainder); or a 2-stage inverter chain on SPICE.
Sweep sweep_of(Subject subject) {
  if (subject == Subject::kAdder) {
    Sweep s{std::make_unique<sizing::Evaluator>(
                sizing::build_campaign_circuit("builtin:adder2", nullptr), "vbs"),
            sizing::all_vector_pairs(4)};
    Rng rng(97);
    for (std::size_t i = s.pairs.size() - 1; i > 0; --i) {
      std::swap(s.pairs[i], s.pairs[rng.uniform_int(0, i)]);
    }
    return s;
  }
  circuits::InverterTree chain =
      circuits::make_inverter_tree(tech07(), {.fanout = 1, .stages = 2});
  std::vector<std::string> outputs = {chain.netlist.net_name(chain.leaves[0])};
  return {std::make_unique<sizing::Evaluator>(
              sizing::CornerCircuit{std::move(chain.netlist), std::move(outputs)}, "spice"),
          sizing::all_vector_pairs(1)};
}

/// 4096 seeded sampled adder3 transitions in 600-row chunks at two W/Ls
/// and two corners: 28 chunks, each several pool tasks long, the last of
/// each sweep shorter.
const char* kCampaignSpec = R"({
  "circuit": "builtin:adder3", "target_pct": 10.0, "wl_grid": [10, 80],
  "corners": [{ "name": "nominal" },
              { "name": "slow", "vdd_scale": 0.95, "vt_high_shift": 0.05, "temp": 358.15 }],
  "vectors": { "mode": "sampled", "count": 4096, "seed": 9 }, "chunk": 600
})";

/// Forwards to a backend (name, netlist and outputs too, so checkpoint keys
/// match) and counts every delay evaluation, scalar or batched.
class CountingBackend final : public EvalBackend {
 public:
  explicit CountingBackend(const EvalBackend& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  const netlist::Netlist& netlist() const override { return inner_.netlist(); }
  const std::vector<std::string>& outputs() const override { return inner_.outputs(); }
  double delay_baseline(const VectorPair& vp) const override {
    ++calls;
    return inner_.delay_baseline(vp);
  }
  double delay_at_wl(const VectorPair& vp, double wl) const override {
    ++calls;
    return inner_.delay_at_wl(vp, wl);
  }
  bool supports_batch() const override { return inner_.supports_batch(); }
  void delay_at_wl_batch(const VectorPair* const* vps, std::size_t n, double wl,
                         Outcome<double>* out) const override {
    calls += n;
    inner_.delay_at_wl_batch(vps, n, wl, out);
  }
  void delay_baseline_batch(const VectorPair* const* vps, std::size_t n,
                            Outcome<double>* out) const override {
    calls += n;
    inner_.delay_baseline_batch(vps, n, out);
  }

  mutable std::atomic<std::size_t> calls{0};

 private:
  const EvalBackend& inner_;
};

/// Every journal record, sorted by key.
Lines journal_lines(const Checkpoint& ckpt) {
  std::map<std::string, std::string> records;
  ckpt.journal().for_each([&](const std::string& k, const std::string& v) { records[k] = v; });
  Lines out;
  for (const auto& [key, value] : records) out.push_back(key + " = " + value);
  return out;
}

/// A finished campaign's table, then its store: one block per chunk,
/// tagged with the chunk id, row by row (key and exact value bits).
Lines campaign_value(CampaignDriver& driver, const CampaignStats& stats) {
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.chunks_replayed + stats.chunks_run, driver.n_chunks());
  EXPECT_EQ(stats.chunks_poisoned, 0u);
  std::ostringstream table;
  driver.write_table(table);
  EXPECT_NE(table.str().find("\"format\": \"mtcmos-campaign-table-1\""), std::string::npos);
  EXPECT_NE(table.str().find("\"name\": \"slow\""), std::string::npos);
  Lines out;
  std::istringstream in(table.str());
  for (std::string line; std::getline(in, line);) out.push_back(line);
  std::map<std::uint64_t, int> blocks;
  util::scan_columnar_file(
      driver.store_path(),
      [&](const util::ColumnarRow& row) {
        std::string text = std::to_string(row.tag) + ' ' + std::string(row.key);
        for (std::size_t c = 0; c < row.n_cols; ++c) {
          text += ' ' + std::to_string(std::bit_cast<std::uint64_t>(row.values[c]));
        }
        out.push_back(std::move(text));
      },
      [&](std::uint64_t tag) { return ++blocks[tag] == 1; });
  std::uint64_t next = 0;
  for (const auto& [tag, n] : blocks) {
    EXPECT_EQ(tag, next++);
    EXPECT_EQ(n, 1) << "tag " << tag;
  }
  EXPECT_EQ(next, driver.n_chunks());
  return out;
}

// --- The cells ------------------------------------------------------------

class Contract : public ::testing::TestWithParam<Cell> {
 protected:
  void SetUp() override {
    dir_ = test::scratch_dir("contract_test");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    faultinject::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  /// The row's value under `session`, its SweepReport included.
  Lines run(const Row& row, const EvalBackend& backend, const std::vector<VectorPair>& pairs,
            EvalSession session) {
    SweepReport report;
    session.report = &report;
    session.cancel_token = &token_;
    Lines out = row.run(backend, pairs, session);
    test::append(out, test::lines(report));
    return out;
  }

  void sweep_cell(const Row& row, Column column);
  void campaign_cell(Column column);

  std::filesystem::path dir_;
  util::CancelToken token_;
};

void Contract::sweep_cell(const Row& row, Column column) {
  const Sweep sweep = sweep_of(row.subject);
  const EvalBackend& backend = sweep.eval->backend();
  const std::vector<VectorPair>& pairs = sweep.pairs;

  // Sharded first: it forks, and no pool thread may be alive then.  The
  // workers simulate in their own processes and fill the checkpoint; the
  // parent's pass over it only replays.
  Lines got;
  util::ThreadPool serial(1);
  if (column == kSharded) {
    sizing::SupervisorOptions options;
    options.shards = 3;
    options.dir = path("shards");
    options.cancel_token = &token_;
    const CountingBackend counted(backend);
    Checkpoint merged;
    merged.open(path("sharded.mtj"));
    const sizing::SupervisorStats stats =
        sizing::sharded_rank_vectors(counted, pairs, kWl, options, merged);
    EXPECT_EQ(stats.workers_spawned, 3);
    EXPECT_EQ(stats.restarts, 0);
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_EQ(stats.abandoned, 0u);
    EXPECT_FALSE(stats.cancelled);
    got = run(row, counted, pairs, {.pool = &serial, .checkpoint = &merged});
    EXPECT_EQ(counted.calls.load(), 0u);
  }

  Checkpoint reference;
  reference.open(path("reference.mtj"));
  const Lines want =
      run(row, backend, pairs, {.pool = &serial, .checkpoint = &reference, .batch = 1});
  const Lines want_journal = journal_lines(reference);
  const std::size_t items = reference.journal().item_count();
  ASSERT_GT(items, 0u);
  EXPECT_EQ(reference.journal().size(), items);  // no text records in a sweep journal

  switch (column) {
    case kBatch0:
    case kBatch7:
      got = run(row, backend, pairs, {.pool = &serial, .batch = column == kBatch0 ? 0u : 7u});
      break;
    case kPool1:
    case kPool2:
    case kPool4:
    case kPool8: {
      // pool1 and pool4 batch 16 items a chunk, pool2 and pool8 take the
      // scalar path; a fresh backend fills its caches from every thread.
      const Sweep cold = sweep_of(row.subject);
      util::ThreadPool pool(1 << (column - kPool1));
      const std::size_t batch = column == kPool1 || column == kPool4 ? 16 : 1;
      got = run(row, cold.eval->backend(), pairs, {.pool = &pool, .batch = batch});
      break;
    }
    case kSharded:
      break;
    case kResumed: {
      // The append of item kill_at throws, tearing the sweep down where a
      // SIGKILL would: some items journaled, the rest not.
      util::ThreadPool pool(2);
      EvalSession session{.pool = &pool, .batch = 24};
      {
        Checkpoint killed;
        killed.open(path("resumed.mtj"));
        session.checkpoint = &killed;
        faultinject::arm(faultinject::Site::kJournalAppend, row.kill_at, /*fail_hits=*/1);
        EXPECT_THROW(run(row, backend, pairs, session), NumericalError);
        faultinject::disarm_all();
        EXPECT_LT(killed.journal().item_count(), items);
      }
      Checkpoint resumed;
      resumed.open(path("resumed.mtj"));
      session.checkpoint = &resumed;
      got = run(row, backend, pairs, session);
      EXPECT_TRUE(test::same(journal_lines(resumed), want_journal)) << "resumed journal";
      break;
    }
    case kReplayed: {
      const CountingBackend counted(backend);
      util::ThreadPool pool(4);
      EvalSession session{.pool = &pool};
      {
        Checkpoint fresh;
        fresh.open(path("replayed.mtj"));
        session.checkpoint = &fresh;
        EXPECT_TRUE(test::same(run(row, counted, pairs, session), want)) << "fresh run";
        EXPECT_EQ(counted.calls.load() > 0, row.run != &screen);  // screen simulates nothing
      }
      counted.calls = 0;
      Checkpoint again;
      again.open(path("replayed.mtj"));
      EXPECT_EQ(again.journal().replayed_records(), items);
      session.checkpoint = &again;
      got = run(row, counted, pairs, session);
      EXPECT_EQ(counted.calls.load(), 0u);
      EXPECT_TRUE(test::same(journal_lines(again), want_journal)) << "replayed journal";
      break;
    }
  }
  EXPECT_TRUE(test::same(got, want));
}

void Contract::campaign_cell(Column column) {
  const auto spec = sizing::CampaignSpec::parse(kCampaignSpec);
  const auto fresh = [&](const std::string& name, int threads) {
    CampaignDriver driver(spec, path(name), false);
    util::ThreadPool pool(threads);
    const CampaignStats stats = driver.run(1, nullptr, &token_, &pool);
    EXPECT_EQ(driver.n_vectors(), 4096u);
    EXPECT_EQ(stats.chunks_run, driver.n_chunks());
    EXPECT_EQ(stats.rows_emitted, driver.n_vectors() * 4);  // 2 corners x 2 W/Ls
    return campaign_value(driver, stats);
  };

  // Sharded first: it forks, and no pool thread may be alive then.
  Lines got;
  if (column == kSharded) {
    CampaignDriver sharded(spec, path("sharded"), false);
    const CampaignStats stats = sharded.run(2, nullptr, &token_);
    EXPECT_GE(stats.supervisor.workers_spawned, 2);
    got = campaign_value(sharded, stats);
  }
  const Lines want = fresh("reference", 1);

  if (column >= kPool1 && column <= kPool8) got = fresh("pool", 1 << (column - kPool1));
  if (column == kResumed) {
    // A watcher cancels once chunk 1 is journaled; however many chunks
    // commit before the run sees it, the resume must converge.
    util::ThreadPool pool(2);
    {
      util::CancelToken token;
      CampaignDriver interrupted(spec, path("resumed"), false);
      std::thread watcher([&] {
        while (interrupted.chunks_done() < 2) std::this_thread::yield();
        token.request();
      });
      const CampaignStats stats = interrupted.run(1, nullptr, &token, &pool);
      watcher.join();
      EXPECT_EQ(stats.chunks_replayed + stats.chunks_run, interrupted.chunks_done());
    }
    CampaignDriver resumed(spec, path("resumed"), true);
    got = campaign_value(resumed, resumed.run(1, nullptr, &token_, &pool));
  }
  if (column == kReplayed) {
    EXPECT_TRUE(test::same(fresh("replayed", 4), want)) << "fresh run";
    CampaignDriver replayed(spec, path("replayed"), true);
    util::ThreadPool pool(4);
    const CampaignStats stats = replayed.run(1, nullptr, &token_, &pool);
    EXPECT_EQ(stats.chunks_run, 0u);
    got = campaign_value(replayed, stats);
  }
  EXPECT_TRUE(test::same(got, want));
}

TEST_P(Contract, Holds) {
  const Row& row = kRows[GetParam().row];
  if (row.subject == Subject::kCampaign) {
    campaign_cell(GetParam().column);
  } else {
    sweep_cell(row, GetParam().column);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, Contract, ::testing::ValuesIn(applicable_cells()), cell_name);

}  // namespace
}  // namespace mtcmos
