// Daemon replay lane under concurrency.  The daemon serves on a thread of
// this process (not a forked child, unlike daemon_test), so the `tsan`
// build sees every thread: the poll loop, the executor computing fresh
// rank sweeps into the shared checkpoint store, and the replay lane
// answering repeats from that same store at the same time.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sizing/daemon.hpp"
#include "util/cancel.hpp"
#include "util/socket.hpp"

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
  const fs::path dir = fs::temp_directory_path() / ("lane." + std::to_string(::getpid()));
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

}  // namespace
}  // namespace mtcmos
