// Daemon kill-and-reconnect soak: round after round, a forked
// mtcmos_sizerd is SIGKILLed at a randomized lifecycle site -- before a
// randomized streamed row, between journal and ack, right after the
// read -- restarted on the same state directory, killed again during
// the headless restart-resume, restarted once more, and finally asked
// the same question over a fresh connection.  Every round must end with
// the byte-identical row stream of an uninterrupted run.
//
// Deliberately heavier than the unit suite: registered under the `soak`
// ctest configuration (ctest -C soak) so plain `ctest` skips it.  The
// RNG seed is fixed; every run exercises the same kill schedule.

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "sizing/daemon.hpp"
#include "util/faultinject.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

namespace fs = std::filesystem;
using sizing::Daemon;
using sizing::DaemonOptions;
using util::ChildProcess;
using util::LineChannel;

constexpr int kRounds = 12;
constexpr char kRank[] = "{\"op\":\"rank\",\"circuit\":\"builtin:adder2\",\"wl\":6}";

class DaemonSoak : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_dir("daemon_soak");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    faultinject::disarm_all();
    fs::remove_all(dir_);
  }

  std::string sock() const { return (dir_ / "d.sock").string(); }

  ChildProcess start(const std::string& state_dir) {
    DaemonOptions opt;
    opt.socket_path = sock();
    opt.state_dir = state_dir;
    opt.poll_interval_ms = 10;
    ChildProcess child = util::spawn_child([opt](int) -> int {
      Daemon daemon(opt);
      return Daemon::exit_code(daemon.serve());
    });
    util::close_fd(child.pipe_fd);
    return child;
  }

  std::unique_ptr<LineChannel> connect() {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (true) {
      try {
        return std::make_unique<LineChannel>(util::unix_connect(sock()));
      } catch (const std::exception&) {
        if (std::chrono::steady_clock::now() >= deadline) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  }

  /// Send `request` and read lines until `done`/`error` or EOF.  Returns
  /// the row/value lines; `done` reports whether a done line arrived.
  std::vector<std::string> collect(LineChannel& ch, const std::string& request, bool& done) {
    done = false;
    std::vector<std::string> rows;
    EXPECT_TRUE(ch.send(request));
    std::string line;
    while (ch.recv(line, 120000)) {
      if (line.find("\"type\":\"row\"") != std::string::npos ||
          line.find("\"type\":\"value\"") != std::string::npos) {
        rows.push_back(line);
      } else if (line.find("\"type\":\"done\"") != std::string::npos) {
        done = true;
        break;
      } else if (line.find("\"type\":\"error\"") != std::string::npos) {
        ADD_FAILURE() << "unexpected error line: " << line;
        break;
      }
    }
    return rows;
  }

  fs::path dir_;
};

TEST_F(DaemonSoak, RandomizedKillRestartRoundsStayByteIdentical) {
  // Reference rows from one uninterrupted daemon life.
  const ChildProcess ref = start((dir_ / "ref").string());
  auto ch = connect();
  bool done = false;
  const std::vector<std::string> want = collect(*ch, kRank, done);
  ASSERT_TRUE(done);
  ASSERT_GT(want.size(), 100u);
  ASSERT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(util::reap(ref.pid).exit_code, 0);
  ch.reset();

  std::mt19937 rng(20260807u);
  const int rows = static_cast<int>(want.size());
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string state = (dir_ / ("round" + std::to_string(round))).string();

    // Life 1: die at a randomized site while serving the live request.
    const int which = round % 3;
    if (which == 0) {
      faultinject::arm(faultinject::Site::kDaemonWrite,
                       std::uniform_int_distribution<int>(0, rows - 1)(rng), 1);
    } else if (which == 1) {
      faultinject::arm(faultinject::Site::kDaemonAckLost, 0, 1);
    } else {
      faultinject::arm(faultinject::Site::kDaemonRead, 0, 1);
    }
    ChildProcess child = start(state);
    ch = connect();
    std::vector<std::string> partial = collect(*ch, kRank, done);
    EXPECT_FALSE(done);
    for (std::size_t i = 0; i < partial.size(); ++i) {
      ASSERT_EQ(partial[i], want[i]) << "partial row " << i;
    }
    EXPECT_EQ(util::reap(child.pid).term_signal, SIGKILL);
    faultinject::disarm_all();

    // Life 2: kill again, this time during the headless restart-resume
    // (only the write site fires there -- for the read/ack rounds the
    // request either was never journaled or resumes instantly).
    if (which == 0 && partial.size() + 1 < want.size()) {
      faultinject::arm(faultinject::Site::kDaemonWrite,
                       std::uniform_int_distribution<int>(static_cast<int>(partial.size()),
                                                          rows - 1)(rng),
                       1);
      child = start(state);
      EXPECT_EQ(util::reap(child.pid).term_signal, SIGKILL);
      faultinject::disarm_all();
    }

    // Final life: reconnect, re-send, and require the full byte-identical
    // stream of the uninterrupted reference.
    child = start(state);
    ch = connect();
    const std::vector<std::string> got = collect(*ch, kRank, done);
    EXPECT_TRUE(done);
    EXPECT_EQ(got, want);
    ASSERT_TRUE(ch->send("{\"op\":\"drain\"}"));
    EXPECT_EQ(util::reap(child.pid).exit_code, 0);
    ch.reset();
  }
}

}  // namespace
}  // namespace mtcmos
