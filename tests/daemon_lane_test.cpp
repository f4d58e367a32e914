// Daemon replay lane under concurrency.  The daemon serves on a thread of
// this process (not a forked child, unlike daemon_test), so the `tsan`
// build sees every thread: the poll loop, the executor computing fresh
// rank sweeps into the shared checkpoint store, and the replay lane
// answering repeats from that same store at the same time.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sizing/daemon.hpp"
#include "util/cancel.hpp"
#include "util/socket.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

namespace fs = std::filesystem;
using util::LineChannel;

struct Answer {
  std::vector<std::string> rows;
  std::string terminal;  ///< done or error line ("" = EOF first)
};

Answer ask(LineChannel& ch, const std::string& request) {
  EXPECT_TRUE(ch.send(request));
  Answer a;
  std::string line;
  while (ch.recv(line, 60000)) {
    if (line.find("\"type\":\"ack\"") != std::string::npos) continue;
    if (line.find("\"type\":\"row\"") != std::string::npos) {
      a.rows.push_back(line);
      continue;
    }
    a.terminal = line;
    break;
  }
  return a;
}

bool has(const std::string& line, const std::string& needle) {
  return line.find(needle) != std::string::npos;
}

std::string rank(const std::string& circuit, double wl) {
  return "{\"op\":\"rank\",\"circuit\":\"builtin:" + circuit + "\",\"wl\":" +
         std::to_string(wl) + "}";
}

TEST(DaemonReplayLane, RepeatsBesideFreshSweepsReplayExactlyAndDrainClean) {
  const fs::path dir = test::scratch_dir("lane");
  fs::remove_all(dir);
  fs::create_directories(dir);
  util::CancelToken token;
  sizing::DaemonOptions opt;
  opt.socket_path = (dir / "d.sock").string();
  opt.state_dir = (dir / "state").string();
  opt.poll_interval_ms = 10;
  opt.cancel_token = &token;
  sizing::DaemonStats stats;
  std::thread server([&] { stats = sizing::Daemon(opt).serve(); });

  const auto connect = [&] {
    for (int i = 0;; ++i) {
      try {
        return std::make_unique<LineChannel>(util::unix_connect(opt.socket_path));
      } catch (const std::exception&) {
        if (i >= 1000) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  };
  auto replayer = connect();
  auto computer = connect();

  const Answer first = ask(*replayer, rank("adder2", 6.0));
  ASSERT_TRUE(has(first.terminal, "\"type\":\"done\"")) << first.terminal;
  ASSERT_FALSE(first.rows.empty());

  constexpr int kRepeats = 6;
  constexpr int kFresh = 3;
  // adder3 sweeps (4096 items) keep the executor busy while the repeats
  // of the adder2 sweep (256 items) go through the lane.
  std::thread fresh([&] {
    for (int i = 0; i < kFresh; ++i) {
      const Answer a = ask(*computer, rank("adder3", 7.0 + i));
      EXPECT_TRUE(has(a.terminal, "\"dedup_hits\":0")) << a.terminal;
    }
  });
  for (int i = 0; i < kRepeats; ++i) {
    const Answer a = ask(*replayer, rank("adder2", 6.0));
    EXPECT_EQ(a.rows, first.rows);
    EXPECT_TRUE(has(a.terminal, "\"dedup_misses\":0")) << a.terminal;
  }
  fresh.join();

  EXPECT_TRUE(replayer->send("{\"op\":\"drain\"}"));
  server.join();
  EXPECT_EQ(stats.completed, static_cast<std::size_t>(1 + kRepeats + kFresh));
  EXPECT_EQ(stats.dedup_hits, kRepeats * first.rows.size());
  EXPECT_FALSE(stats.interrupted);
  fs::remove_all(dir);
}

// --- Warm evaluation contexts -------------------------------------------
//
// The daemon keeps a few circuits' backends (and their W/L-invariant
// baseline memos) warm across requests.  Warm or cold, an answer must be
// byte-identical to what a newly started daemon sends.

/// A daemon served on a thread of this process over a fresh state dir.
class Served {
 public:
  explicit Served(const fs::path& dir) : dir_(dir) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    opt_.socket_path = (dir_ / "d.sock").string();
    opt_.state_dir = (dir_ / "state").string();
    opt_.poll_interval_ms = 10;
    opt_.cancel_token = &token_;
    server_ = std::thread([this] { stats_ = sizing::Daemon(opt_).serve(); });
  }
  ~Served() {
    if (server_.joinable()) {
      token_.request();
      server_.join();
    }
    fs::remove_all(dir_);
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  std::unique_ptr<LineChannel> connect() const {
    for (int i = 0;; ++i) {
      try {
        return std::make_unique<LineChannel>(util::unix_connect(opt_.socket_path));
      } catch (const std::exception&) {
        if (i >= 1000) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  /// Drain through `ch` and wait for serve() to return.
  sizing::DaemonStats drain(LineChannel& ch) {
    EXPECT_TRUE(ch.send("{\"op\":\"drain\"}"));
    server_.join();
    return stats_;
  }

 private:
  fs::path dir_;
  util::CancelToken token_;
  sizing::DaemonOptions opt_;
  sizing::DaemonStats stats_;
  std::thread server_;
};

std::string rank_circuit(const std::string& path, double wl) {
  return "{\"op\":\"rank\",\"circuit\":\"" + path + "\",\"wl\":" + std::to_string(wl) + "}";
}

/// `request` answered by a newly started daemon.
Answer cold_answer(const std::string& request) {
  Served cold(test::scratch_dir("lane.cold"));
  auto ch = cold.connect();
  Answer a = ask(*ch, request);
  cold.drain(*ch);
  return a;
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
}

TEST(DaemonWarmContext, FreshWlOnAWarmCircuitMatchesANewDaemon) {
  Served warm(test::scratch_dir("lane.warm"));
  auto ch = warm.connect();
  for (const double wl : {5.0, 7.0}) {
    const Answer a = ask(*ch, rank("adder2", wl));
    ASSERT_TRUE(has(a.terminal, "\"type\":\"done\"")) << a.terminal;
  }
  const Answer hot = ask(*ch, rank("adder2", 9.0));
  EXPECT_TRUE(has(hot.terminal, "\"dedup_hits\":0")) << hot.terminal;
  warm.drain(*ch);

  const Answer cold = cold_answer(rank("adder2", 9.0));
  ASSERT_FALSE(cold.rows.empty());
  EXPECT_EQ(hot.rows, cold.rows);
  EXPECT_EQ(hot.terminal, cold.terminal);
}

TEST(DaemonWarmContext, EditedMtnFileIsReadAgain) {
  const fs::path dir = test::scratch_dir("lane.mtn");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string mtn = (dir / "blk.mtn").string();
  const std::string head = "tech paper-0.7um\ninput a b\n";
  const std::string tail = "inv g2 g1.out\nload g2.out 50f\noutput g2.out\n";
  write_file(mtn, head + "nand2 g1 a b\n" + tail);

  Answer before, after;
  {
    Served warm(test::scratch_dir("lane.mtnwarm"));
    auto ch = warm.connect();
    before = ask(*ch, rank_circuit(mtn, 10.0));
    ASSERT_TRUE(has(before.terminal, "\"type\":\"done\"")) << before.terminal;
    // Same path, same request key -- but a different circuit.
    write_file(mtn, head + "nor2 g1 a b\n" + tail);
    after = ask(*ch, rank_circuit(mtn, 10.0));
    ASSERT_TRUE(has(after.terminal, "\"type\":\"done\"")) << after.terminal;
    warm.drain(*ch);
  }
  EXPECT_NE(after.rows, before.rows);
  EXPECT_EQ(after.rows, cold_answer(rank_circuit(mtn, 10.0)).rows);
  fs::remove_all(dir);
}

TEST(DaemonWarmContext, MoreCircuitsThanTheBoundStayCorrect) {
  const fs::path dir = test::scratch_dir("lane.many");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string mtn = (dir / "blk.mtn").string();
  write_file(mtn,
             "tech paper-0.7um\ninput a b c\nnand2 g1 a b\nnor2 g2 g1.out c\n"
             "load g2.out 50f\noutput g2.out\n");
  // Five circuits through a cache of four: every second round evicts.
  const std::vector<std::string> circuits = {"builtin:adder1", "builtin:mult2",
                                             "builtin:wallace2", "builtin:adder2", mtn};
  std::vector<Answer> warm_answers;
  {
    Served warm(test::scratch_dir("lane.manywarm"));
    auto ch = warm.connect();
    for (const double wl : {10.0, 20.0, 30.0}) {
      for (const std::string& c : circuits) warm_answers.push_back(ask(*ch, rank_circuit(c, wl)));
    }
    warm.drain(*ch);
  }
  std::size_t k = 0;
  for (const double wl : {10.0, 20.0, 30.0}) {
    for (const std::string& c : circuits) {
      const Answer cold = cold_answer(rank_circuit(c, wl));
      ASSERT_FALSE(cold.rows.empty()) << c;
      EXPECT_EQ(warm_answers[k].rows, cold.rows) << c << " at W/L " << wl;
      EXPECT_EQ(warm_answers[k].terminal, cold.terminal) << c << " at W/L " << wl;
      ++k;
    }
  }
  fs::remove_all(dir);
}

// One circuit under both request threads: the executor's fresh sweeps
// and the lane's repeats share one warm backend (and its memos).
TEST(DaemonWarmContext, ExecutorAndLaneShareOneCircuit) {
  Served served(test::scratch_dir("lane.shared"));
  auto replayer = served.connect();
  auto computer = served.connect();
  const Answer first = ask(*replayer, rank("adder3", 6.0));
  ASSERT_TRUE(has(first.terminal, "\"type\":\"done\"")) << first.terminal;
  ASSERT_FALSE(first.rows.empty());

  constexpr int kRepeats = 6;
  constexpr int kFresh = 3;
  std::vector<Answer> fresh_answers(kFresh);
  std::thread fresh([&] {
    for (int i = 0; i < kFresh; ++i) {
      fresh_answers[static_cast<std::size_t>(i)] = ask(*computer, rank("adder3", 7.0 + i));
    }
  });
  for (int i = 0; i < kRepeats; ++i) {
    const Answer a = ask(*replayer, rank("adder3", 6.0));
    EXPECT_EQ(a.rows, first.rows);
    EXPECT_TRUE(has(a.terminal, "\"dedup_misses\":0")) << a.terminal;
  }
  fresh.join();
  const sizing::DaemonStats stats = served.drain(*replayer);
  EXPECT_EQ(stats.completed, static_cast<std::size_t>(1 + kRepeats + kFresh));
  EXPECT_FALSE(stats.interrupted);
  for (int i = 0; i < kFresh; ++i) {
    const Answer& a = fresh_answers[static_cast<std::size_t>(i)];
    EXPECT_TRUE(has(a.terminal, "\"dedup_hits\":0")) << a.terminal;
    EXPECT_EQ(a.rows, cold_answer(rank("adder3", 7.0 + i)).rows);
  }
}

}  // namespace
}  // namespace mtcmos
