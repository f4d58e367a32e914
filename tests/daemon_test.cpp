// mtcmos_sizerd contract tests: line-protocol round trips, admission
// control (coded `overloaded` rejections under flood), request
// deadlines, graceful drain exit codes, cross-request dedup counters,
// the replay lane, and the crash-safety ladder driven by the kDaemon*
// faultinject sites -- kill after accept, after read-before-journal,
// between journal and ack, and mid-row-stream, each followed by a
// restart that must resume journaled work and answer a re-sent request
// with byte-identical rows.
//
// The daemon runs as a forked child (util::spawn_child) so a SIGKILL
// plan takes out a real process; the fork inherits the test's armed
// plan table, and the daemon's boot-counter generation stamp keeps a
// generation-0 plan from re-firing in the restarted life.

#include "sizing/daemon.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "sizing/eval_types.hpp"
#include "util/faultinject.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

namespace fs = std::filesystem;
using sizing::Daemon;
using sizing::DaemonOptions;
using util::ChildProcess;
using util::ExitStatus;
using util::LineChannel;

// ------------------------------------------------------------ satellite:
// LineReader short-read hardening.  A writer dribbles two lines one byte
// at a time while bombarding the reader with a no-SA_RESTART signal, so
// reads and polls keep getting interrupted mid-byte; both lines must
// still arrive intact and in order.

void noop_handler(int) {}

TEST(LineReaderHardening, ByteAtATimeInterruptedWritesDeliverWholeLines) {
  struct sigaction sa {};
  sa.sa_handler = noop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: force EINTR
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string payload = "first line with spaces\nsecond:{\"json\":true}\n";

  const pthread_t reader_thread = ::pthread_self();
  std::thread writer([&] {
    for (const char c : payload) {
      ASSERT_EQ(::write(sv[1], &c, 1), 1);
      ::pthread_kill(reader_thread, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::close(sv[1]);
  });

  LineChannel ch(sv[0]);
  std::string line;
  ASSERT_TRUE(ch.recv(line, 10000));
  EXPECT_EQ(line, "first line with spaces");
  ASSERT_TRUE(ch.recv(line, 10000));
  EXPECT_EQ(line, "second:{\"json\":true}");
  EXPECT_FALSE(ch.recv(line, 1000));  // EOF after the writer closed
  EXPECT_TRUE(ch.drained());
  writer.join();
  ::sigaction(SIGUSR1, &old, nullptr);
}

// ---------------------------------------------------- write-stall bound
// A peer that keeps its connection open but never reads must fail the
// write within the stall budget instead of blocking forever (what would
// otherwise pin the daemon executor inside a row stream); a peer that
// does drain lets the same oversized line through.

TEST(WriteLineStall, NonReadingPeerFailsWithinBudgetDrainingPeerSucceeds) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::string line(512 * 1024, 'x');  // far beyond any socket buffer

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int sndbuf = 8 * 1024;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  ASSERT_EQ(::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL) | O_NONBLOCK), 0);

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(util::write_line(sv[0], line, /*stall_timeout_ms=*/200));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 150);   // it did wait out the grace...
  EXPECT_LT(elapsed, 5000);  // ...but not forever
  ::close(sv[0]);
  ::close(sv[1]);

  int rw[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, rw), 0);
  ::setsockopt(rw[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  ASSERT_EQ(::fcntl(rw[0], F_SETFL, ::fcntl(rw[0], F_GETFL) | O_NONBLOCK), 0);
  std::thread reader([&] {
    char buf[4096];
    std::size_t total = 0;
    while (total < line.size() + 1) {
      const ssize_t n = ::read(rw[1], buf, sizeof(buf));
      if (n <= 0) break;
      total += static_cast<std::size_t>(n);
    }
  });
  EXPECT_TRUE(util::write_line(rw[0], line, /*stall_timeout_ms=*/10000));
  reader.join();
  ::close(rw[0]);
  ::close(rw[1]);
}

// --------------------------------------------------- socket ownership
// open() may reclaim only a *stale* socket file; a path where another
// daemon is still listening must be refused, not silently stolen.

TEST(UnixListenerOwnership, LivePathIsRefusedStaleFileIsReclaimed) {
  const std::string path =
      (fs::temp_directory_path() / ("ul_own." + std::to_string(::getpid()) + ".sock")).string();
  ::unlink(path.c_str());

  util::UnixListener first;
  first.open(path);
  util::UnixListener second;
  EXPECT_THROW(second.open(path), std::runtime_error);
  // The refusal left the live listener untouched.
  const int fd = util::unix_connect(path);
  util::close_fd(fd);
  first.close();

  // A SIGKILLed daemon leaves a bound-but-dead socket file behind;
  // recreate that shape (bind + close without unlink) and expect open()
  // to reclaim it.
  {
    const int s = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(s, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::bind(s, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(s);
  }
  second.open(path);  // stale: reclaimed without throwing
  second.close();
}

// --------------------------------------------------------------- harness

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_dir("daemon_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    faultinject::disarm_all();
    for (const pid_t pid : running_) {
      util::send_signal(pid, SIGKILL);
      util::reap(pid);
    }
    running_.clear();
    fs::remove_all(dir_);
  }

  std::string sock() const { return (dir_ / "d.sock").string(); }
  std::string state(const std::string& name) const { return (dir_ / name).string(); }

  /// Fork a daemon on `state_dir`.  The child inherits whatever
  /// faultinject plans are armed right now.
  ChildProcess start(const std::string& state_dir, int max_queue = 8, int shards = 1,
                     double default_deadline_s = 0.0) {
    DaemonOptions opt;
    opt.socket_path = sock();
    opt.state_dir = state_dir;
    opt.max_queue = max_queue;
    opt.shards = shards;
    opt.default_deadline_s = default_deadline_s;
    opt.poll_interval_ms = 10;
    ChildProcess child = util::spawn_child([opt](int) -> int {
      Daemon daemon(opt);
      return Daemon::exit_code(daemon.serve());
    });
    util::close_fd(child.pipe_fd);
    running_.push_back(child.pid);
    return child;
  }

  ExitStatus wait_exit(const ChildProcess& child) {
    const ExitStatus st = util::reap(child.pid);
    running_.erase(std::remove(running_.begin(), running_.end(), child.pid), running_.end());
    return st;
  }

  /// Connect to the daemon socket, retrying while it boots (or reboots:
  /// a stale socket file from a killed daemon refuses connections until
  /// the restarted listener rebinds).
  std::unique_ptr<LineChannel> connect(int timeout_ms = 15000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      try {
        return std::make_unique<LineChannel>(util::unix_connect(sock()));
      } catch (const std::exception&) {
        if (std::chrono::steady_clock::now() >= deadline) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  }

  static std::string recv_line(LineChannel& ch, int timeout_ms = 60000) {
    std::string line;
    EXPECT_TRUE(ch.recv(line, timeout_ms)) << "expected a protocol line, got timeout/EOF";
    return line;
  }

  struct Stream {
    std::string ack;
    std::vector<std::string> rows;  ///< `row` and `value` lines, in order
    std::string terminal;           ///< `done` or `error` line ("" = EOF first)
  };

  /// Send a request and collect its whole response stream.
  static Stream exchange(LineChannel& ch, const std::string& request, int timeout_ms = 60000) {
    EXPECT_TRUE(ch.send(request));
    Stream s;
    std::string line;
    while (ch.recv(line, timeout_ms)) {
      if (line.find("\"type\":\"ack\"") != std::string::npos) {
        s.ack = line;
      } else if (line.find("\"type\":\"row\"") != std::string::npos ||
                 line.find("\"type\":\"value\"") != std::string::npos) {
        s.rows.push_back(line);
      } else {
        s.terminal = line;
        break;
      }
    }
    return s;
  }

  static bool has(const std::string& line, const std::string& needle) {
    return line.find(needle) != std::string::npos;
  }

  /// Integer value of `"key":N` in a protocol line (-1 when absent).
  static long json_field(const std::string& line, const std::string& key) {
    const std::size_t pos = line.find("\"" + key + "\":");
    if (pos == std::string::npos) return -1;
    return std::atol(line.c_str() + pos + key.size() + 3);
  }

  /// Send `request` to a fresh daemon: it must answer bad-request before
  /// any ack and journal nothing.
  void expect_rejected_unjournaled(const std::string& request) {
    const ChildProcess child = start(state("a"));
    auto ch = connect();
    EXPECT_TRUE(ch->send(request));
    const std::string answer = recv_line(*ch);
    EXPECT_TRUE(has(answer, "\"code\":\"bad-request\"")) << answer;
    EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
    const std::string drained = recv_line(*ch);
    EXPECT_TRUE(has(drained, "\"op\":\"drain\"")) << drained;  // not an ack of `request`
    EXPECT_EQ(wait_exit(child).exit_code, 0);
    util::Journal journal;
    journal.open(state("a") + "/requests.mtj");
    journal.for_each_text([](const std::string& key, const std::string& value) {
      EXPECT_NE(key.rfind("req:", 0), 0u) << key << " -> " << value;
    });
  }

  /// The request journal's `done:` record for `key` in `state_dir`, or
  /// nullopt while the request is unanswered.
  static std::optional<std::string> done_record(const std::string& state_dir,
                                                const std::string& key) {
    util::Journal journal;
    journal.open(state_dir + "/requests.mtj");
    EXPECT_TRUE(journal.contains("req:" + key)) << key;
    return journal.find("done:" + key);
  }

  fs::path dir_;
  std::vector<pid_t> running_;
};

constexpr char kRank[] = "{\"op\":\"rank\",\"circuit\":\"builtin:adder2\",\"wl\":6}";
constexpr char kCampaign[] =
    "{\"op\":\"campaign\",\"spec\":{\"circuit\":\"builtin:adder1\",\"target_pct\":10.0,"
    "\"wl_grid\":[10,80],\"chunk\":4}}";

// ------------------------------------------------------------- protocol

TEST_F(DaemonTest, StatusDrainAndExitZero) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  const std::string status = recv_line(*ch);
  EXPECT_TRUE(has(status, "\"type\":\"status\"")) << status;
  EXPECT_TRUE(has(status, "\"queue\":0")) << status;
  EXPECT_TRUE(has(status, "\"draining\":false")) << status;

  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"type\":\"ack\""));
  const ExitStatus st = wait_exit(child);
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 0);  // drained while idle
}

TEST_F(DaemonTest, BadRequestIsCodedAndKeepsTheConnectionUsable) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  EXPECT_TRUE(ch->send("this is not json"));
  std::string err = recv_line(*ch);
  EXPECT_TRUE(has(err, "\"code\":\"bad-request\"")) << err;

  EXPECT_TRUE(ch->send("{\"op\":\"rank\",\"circuit\":\"builtin:nosuch9\"}"));
  err = recv_line(*ch);
  EXPECT_TRUE(has(err, "\"code\":\"bad-request\"")) << err;

  // The connection survives both rejections.
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"type\":\"status\""));
  util::send_signal(child.pid, SIGTERM);
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

TEST_F(DaemonTest, RankStreamsRowsAndDuplicateRequestIsAllDedupHits) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();

  const Stream first = exchange(*ch, kRank);
  EXPECT_TRUE(has(first.ack, "\"type\":\"ack\"")) << first.ack;
  ASSERT_FALSE(first.rows.empty());
  EXPECT_TRUE(has(first.terminal, "\"type\":\"done\"")) << first.terminal;
  EXPECT_TRUE(has(first.terminal, "\"failed\":0")) << first.terminal;
  EXPECT_TRUE(has(first.terminal, "\"dedup_hits\":0")) << first.terminal;
  EXPECT_TRUE(has(first.terminal,
                  "\"dedup_misses\":" + std::to_string(first.rows.size())))
      << first.terminal;

  // Same request again: answered entirely from the shared checkpoint
  // store, with byte-identical rows, and journaled nothing: its req: and
  // done: records already hold.
  const fs::path requests = state("a") + "/requests.mtj";
  const auto journaled = fs::file_size(requests);
  const Stream second = exchange(*ch, kRank);
  EXPECT_EQ(second.rows, first.rows);
  EXPECT_EQ(fs::file_size(requests), journaled);
  EXPECT_TRUE(has(second.terminal,
                  "\"dedup_hits\":" + std::to_string(first.rows.size())))
      << second.terminal;
  EXPECT_TRUE(has(second.terminal, "\"dedup_misses\":0")) << second.terminal;

  // Daemon-wide counters on `status` reflect both requests.
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  const std::string status = recv_line(*ch);
  EXPECT_TRUE(has(status, "\"accepted\":2")) << status;
  EXPECT_TRUE(has(status, "\"completed\":2")) << status;
  EXPECT_TRUE(has(status, "\"dedup_hits\":" + std::to_string(first.rows.size()))) << status;

  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

// The request key is a compatibility contract: journals and clients
// written by earlier builds hold it, so the same request bytes must ack
// with the same key.
TEST_F(DaemonTest, RankRequestKeyIsPinned) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  const Stream s = exchange(*ch, kRank);
  EXPECT_TRUE(has(s.ack, "\"req\":\"2fc79c02986d31d6\"")) << s.ack;
  EXPECT_TRUE(has(s.terminal, "\"type\":\"done\"")) << s.terminal;
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

// Out-of-range numbers are rejected at admission, one field at a time:
// nothing reaches the journal in a form a restart cannot re-parse, and no
// cast or clock arithmetic overflows.
TEST_F(DaemonTest, WlThatOverflowsADoubleIsABadRequest) {
  expect_rejected_unjournaled(R"({"op":"rank","circuit":"builtin:adder2","wl":1e999})");
}

TEST_F(DaemonTest, DeadlineTooLongForTheClockIsABadRequest) {
  expect_rejected_unjournaled(
      R"({"op":"rank","circuit":"builtin:adder2","wl":6,"deadline_s":1e300})");
}

TEST_F(DaemonTest, VectorsOutsideIntIsABadRequest) {
  expect_rejected_unjournaled(
      R"({"op":"rank","circuit":"builtin:adder2","wl":6,"vectors":1e10})");
}

TEST_F(DaemonTest, SeedOutsideUint64IsABadRequest) {
  expect_rejected_unjournaled(R"({"op":"rank","circuit":"builtin:adder2","wl":6,"seed":1e300})");
  fs::remove_all(state("a"));
  expect_rejected_unjournaled(R"({"op":"rank","circuit":"builtin:adder2","wl":6,"seed":-1})");
}

TEST_F(DaemonTest, NonPositiveTargetIsABadRequest) {
  expect_rejected_unjournaled(R"({"op":"size","circuit":"builtin:adder2","target_pct":-5})");
  fs::remove_all(state("a"));
  expect_rejected_unjournaled(R"({"op":"verify","circuit":"builtin:adder2","target_pct":0})");
}

TEST_F(DaemonTest, SleepTooLongForTheClockIsABadRequest) {
  expect_rejected_unjournaled(R"({"op":"sleep","seconds":1e300})");
}

TEST_F(DaemonTest, SizeAndVerifyReturnSizingFields) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  const Stream sized = exchange(
      *ch, "{\"op\":\"size\",\"circuit\":\"builtin:adder1\",\"target_pct\":8,\"vectors\":16}");
  EXPECT_TRUE(has(sized.terminal, "\"type\":\"done\"")) << sized.terminal;
  EXPECT_TRUE(has(sized.terminal, "\"wl\":")) << sized.terminal;
  EXPECT_TRUE(has(sized.terminal, "\"degradation_pct\":")) << sized.terminal;

  const Stream verified = exchange(
      *ch, "{\"op\":\"verify\",\"circuit\":\"builtin:adder1\",\"target_pct\":8,\"vectors\":16}",
      300000);
  EXPECT_TRUE(has(verified.terminal, "\"type\":\"done\"")) << verified.terminal;
  EXPECT_TRUE(has(verified.terminal, "\"meets_target\":")) << verified.terminal;

  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

TEST_F(DaemonTest, CampaignRunsToATableAndRepeatReplaysChunks) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  const Stream first = exchange(*ch, kCampaign, 300000);
  ASSERT_TRUE(has(first.terminal, "\"type\":\"done\"")) << first.terminal;
  EXPECT_TRUE(has(first.terminal, "\"table_path\":")) << first.terminal;
  EXPECT_TRUE(has(first.terminal, "\"chunks_replayed\":0")) << first.terminal;
  // Campaign dedup is chunk-granular (campaigns journal into their own
  // checkpoint, not the shared store): a fresh run is all misses.
  EXPECT_EQ(json_field(first.terminal, "dedup_hits"), 0) << first.terminal;
  EXPECT_EQ(json_field(first.terminal, "dedup_misses"),
            json_field(first.terminal, "chunks_run"))
      << first.terminal;

  // Same spec again: the campaign checkpoint replays every chunk.
  const Stream second = exchange(*ch, kCampaign, 300000);
  ASSERT_TRUE(has(second.terminal, "\"type\":\"done\"")) << second.terminal;
  EXPECT_TRUE(has(second.terminal, "\"chunks_run\":0")) << second.terminal;
  EXPECT_EQ(json_field(second.terminal, "dedup_misses"), 0) << second.terminal;
  EXPECT_EQ(json_field(second.terminal, "dedup_hits"),
            json_field(second.terminal, "chunks_replayed"))
      << second.terminal;

  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

TEST_F(DaemonTest, CampaignWhoseTableWriteFailsIsAFailedAnswer) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  const Stream first = exchange(*ch, kCampaign, 300000);
  ASSERT_TRUE(has(first.terminal, "\"type\":\"done\"")) << first.terminal;
  const std::string field = "\"table_path\":\"";
  const std::size_t at = first.terminal.find(field);
  ASSERT_NE(at, std::string::npos) << first.terminal;
  const std::size_t begin = at + field.size();
  const fs::path table = first.terminal.substr(begin, first.terminal.find('"', begin) - begin);
  ASSERT_TRUE(fs::remove(table)) << table;
  fs::create_symlink("/dev/full", table);  // every write to it fails with ENOSPC

  // The repeat replays every chunk, then its table write fails: a coded
  // failure, not a done line that names a table nobody holds.
  const Stream second = exchange(*ch, kCampaign, 300000);
  EXPECT_TRUE(has(second.terminal, "\"code\":\"failed\"")) << second.terminal;
  EXPECT_FALSE(has(second.terminal, "table_path")) << second.terminal;

  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

// ------------------------------------------------------------ admission

TEST_F(DaemonTest, FloodPastTheQueueBoundIsRejectedOverloaded) {
  // max_queue = 0: an idle daemon still admits (the executor takes the
  // request), but anything arriving while one executes is rejected.
  const ChildProcess child = start(state("a"), /*max_queue=*/0);
  auto ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"sleep\",\"seconds\":2}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"type\":\"ack\""));

  int overloaded = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ch->send("{\"op\":\"sleep\",\"seconds\":2." + std::to_string(i) + "1}"));
    const std::string reply = recv_line(*ch);
    EXPECT_TRUE(has(reply, "\"code\":\"overloaded\"")) << reply;
    if (has(reply, "\"code\":\"overloaded\"")) ++overloaded;
  }
  EXPECT_EQ(overloaded, 5);

  // `status` bypasses the queue: the daemon stays observable under load.
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  const std::string status = recv_line(*ch);
  EXPECT_TRUE(has(status, "\"rejected\":5")) << status;
  EXPECT_TRUE(has(status, "\"max_queue\":0")) << status;

  EXPECT_TRUE(has(recv_line(*ch, 30000), "\"type\":\"done\""));  // the admitted sleep
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

TEST_F(DaemonTest, RequestsAfterDrainAreRejectedDraining) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"sleep\",\"seconds\":0.5}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"type\":\"ack\""));
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"op\":\"drain\""));
  EXPECT_TRUE(ch->send("{\"op\":\"sleep\",\"seconds\":0.6}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"code\":\"draining\""));
  // The drain op still finishes admitted work before exit 0.
  EXPECT_TRUE(has(recv_line(*ch, 30000), "\"type\":\"done\""));
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

// ------------------------------------------------------------ deadlines

TEST_F(DaemonTest, DeadlineCancelsTheInFlightRequestWithACodedError) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(ch->send("{\"op\":\"sleep\",\"seconds\":30,\"deadline_s\":0.3}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"type\":\"ack\""));
  const std::string reply = recv_line(*ch, 15000);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(has(reply, "\"code\":\"deadline\"")) << reply;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 10);
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  // A deadline is not an interruption of the daemon itself: drain exits 0.
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

// A sizing cut short by its deadline is not an answer: the client gets a
// coded `deadline` error, the request stays journaled without a done
// record, and the next boot finishes it headless.
TEST_F(DaemonTest, SizeCutShortByItsDeadlineFinishesHeadlessAtTheNextBoot) {
  const std::string size =
      "{\"op\":\"size\",\"circuit\":\"builtin:adder3\",\"backend\":\"vbs\",\"target_pct\":5";
  const ChildProcess first = start(state("a"));
  auto ch = connect();
  const Stream cut = exchange(*ch, size + ",\"deadline_s\":0.003}");
  EXPECT_TRUE(has(cut.terminal, "\"code\":\"deadline\"")) << cut.terminal;
  ASSERT_TRUE(has(cut.ack, "\"type\":\"ack\"")) << cut.ack;
  const std::string key = util::parse_json(cut.ack)->require("req")->as_string();
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(first).exit_code, 0);
  EXPECT_EQ(done_record(state("a"), key), std::nullopt)
      << "a request cut short by its deadline was journaled as answered";

  const ChildProcess second = start(state("a"));
  ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"resumed\":1"));
  const Stream again = exchange(*ch, size + "}");
  EXPECT_TRUE(has(again.ack, "\"req\":\"" + key + "\"")) << again.ack;
  EXPECT_TRUE(has(again.terminal, "\"type\":\"done\"")) << again.terminal;
  EXPECT_TRUE(has(again.terminal, "\"failed\":0")) << again.terminal;
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(second).exit_code, 0);
}

// A headless resume has no client waiting for it: it runs to completion
// even under a daemon-wide default deadline.
TEST_F(DaemonTest, HeadlessResumeRunsPastTheDefaultDeadline) {
  constexpr double kDefaultDeadlineS = 0.003;
  const ChildProcess first = start(state("a"), 8, 1, kDefaultDeadlineS);
  auto ch = connect();
  const Stream cut = exchange(
      *ch, "{\"op\":\"size\",\"circuit\":\"builtin:adder3\",\"backend\":\"vbs\"}");
  EXPECT_TRUE(has(cut.terminal, "\"code\":\"deadline\"")) << cut.terminal;
  ASSERT_TRUE(has(cut.ack, "\"type\":\"ack\"")) << cut.ack;
  const std::string key = util::parse_json(cut.ack)->require("req")->as_string();
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(first).exit_code, 0);

  // The drain finishes the queue, which holds the resumed request.
  const ChildProcess second = start(state("a"), 8, 1, kDefaultDeadlineS);
  ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(second).exit_code, 0);
  EXPECT_EQ(done_record(state("a"), key), std::optional<std::string>("ok"));
}

// A deadline can only cut a sweep short through its cancel token, so a
// done line is always the complete answer: a rank that beats its
// deadline streams every row, one that does not ends in `deadline`.
TEST_F(DaemonTest, DeadlinedRankIsCompleteOrACodedDeadline) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  const Stream s = exchange(
      *ch, "{\"op\":\"rank\",\"circuit\":\"builtin:adder3\",\"wl\":7,\"deadline_s\":1e-6}");
  if (has(s.terminal, "\"type\":\"done\"")) {
    EXPECT_TRUE(has(s.terminal, "\"failed\":0")) << s.terminal;
    EXPECT_EQ(json_field(s.terminal, "rows"), json_field(s.terminal, "total")) << s.terminal;
    EXPECT_EQ(json_field(s.terminal, "rows"), static_cast<long>(s.rows.size()));
  } else {
    EXPECT_TRUE(has(s.terminal, "\"code\":\"deadline\"")) << s.terminal;
  }
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

// ---------------------------------------------------------------- drain

TEST_F(DaemonTest, SigtermWhileIdleExitsZero) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  recv_line(*ch);  // daemon is up and answering
  util::send_signal(child.pid, SIGTERM);
  const ExitStatus st = wait_exit(child);
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 0);
}

TEST_F(DaemonTest, SigtermWhileBusyCancelsAndExitsThree) {
  // The SIGTERM lands in the executor's narrowest window on every run:
  // kDaemonDrainWindow raises it after the pre-run drain check and parks
  // the executor until the drain has begun, before the request is
  // published as active.  Only the re-check at publication can cancel
  // it; without that, the 30 s sleep would run to completion and exit 0.
  faultinject::arm(faultinject::Site::kDaemonDrainWindow, faultinject::kAnyScope, 1);
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"sleep\",\"seconds\":30}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"type\":\"ack\""));
  const std::string reply = recv_line(*ch, 15000);
  EXPECT_TRUE(has(reply, "\"code\":\"cancelled\"")) << reply;
  const ExitStatus st = wait_exit(child);
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 3);  // interrupted admitted work: resumable
}

// --------------------------------------------------- crash-safety ladder

TEST_F(DaemonTest, KillAfterAcceptThenRestartServes) {
  faultinject::arm_generation(faultinject::Site::kDaemonAccept, /*scope=*/0,
                              /*generation=*/0, 1);
  const ChildProcess first = start(state("a"));
  auto ch = connect();
  std::string line;
  EXPECT_FALSE(ch->recv(line, 15000));  // daemon died on accept: EOF, no line
  const ExitStatus st = wait_exit(first);
  EXPECT_TRUE(st.signaled);
  EXPECT_EQ(st.term_signal, SIGKILL);

  const ChildProcess second = start(state("a"));
  ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"type\":\"status\""));
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(second).exit_code, 0);
}

TEST_F(DaemonTest, KillBeforeJournalLosesTheUnackedRequestOnly) {
  faultinject::arm_generation(faultinject::Site::kDaemonRead, /*scope=*/0,
                              /*generation=*/0, 1);
  const ChildProcess first = start(state("a"));
  auto ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"sleep\",\"seconds\":0.1}"));
  std::string line;
  EXPECT_FALSE(ch->recv(line, 15000));  // died before journal: no ack
  EXPECT_EQ(wait_exit(first).term_signal, SIGKILL);

  // Nothing was acked, so nothing resumes; the client re-sends.
  const ChildProcess second = start(state("a"));
  ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"resumed\":0"));
  const Stream again = exchange(*ch, "{\"op\":\"sleep\",\"seconds\":0.1}");
  EXPECT_TRUE(has(again.terminal, "\"type\":\"done\"")) << again.terminal;
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(second).exit_code, 0);
}

TEST_F(DaemonTest, KillBetweenJournalAndAckResumesHeadlessAtRestart) {
  faultinject::arm_generation(faultinject::Site::kDaemonAckLost, /*scope=*/0,
                              /*generation=*/0, 1);
  const ChildProcess first = start(state("a"));
  auto ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"sleep\",\"seconds\":0.1}"));
  std::string line;
  EXPECT_FALSE(ch->recv(line, 15000));  // journaled, but died before the ack
  EXPECT_EQ(wait_exit(first).term_signal, SIGKILL);

  // The acked-side contract: journal strictly before ack means the
  // journaled request is re-run headless even though no ack made it out.
  const ChildProcess second = start(state("a"));
  ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"resumed\":1"));
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(second).exit_code, 0);  // drain finishes the resumed work
}

TEST_F(DaemonTest, KillMidStreamThenRestartAnswersByteIdentical) {
  // Reference: an uninterrupted run in its own state dir.
  const ChildProcess ref = start(state("ref"));
  auto ch = connect();
  const Stream want = exchange(*ch, kRank);
  ASSERT_TRUE(has(want.terminal, "\"type\":\"done\"")) << want.terminal;
  ASSERT_GT(want.rows.size(), 110u);
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(ref).exit_code, 0);

  // Kill the daemon right before it streams row 100 (generation 0 only:
  // the restarted daemon inherits the same plan table but boots with
  // generation 1, so the resume does not die again).
  faultinject::arm_generation(faultinject::Site::kDaemonWrite, /*scope=*/100,
                              /*generation=*/0, 1);
  const ChildProcess killed = start(state("kill"));
  ch = connect();
  const Stream partial = exchange(*ch, kRank);
  EXPECT_EQ(partial.terminal, "");  // EOF mid-stream, no done line
  ASSERT_EQ(partial.rows.size(), 100u);
  for (std::size_t i = 0; i < partial.rows.size(); ++i) {
    EXPECT_EQ(partial.rows[i], want.rows[i]) << "partial row " << i;
  }
  EXPECT_EQ(wait_exit(killed).term_signal, SIGKILL);

  // Restart on the same state dir: the journaled request resumes
  // headless into the store; re-sending it answers from the store with
  // the byte-identical full row stream.
  const ChildProcess second = start(state("kill"));
  ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"resumed\":1"));
  const Stream replay = exchange(*ch, kRank);
  EXPECT_EQ(replay.rows, want.rows);
  EXPECT_TRUE(has(replay.terminal, "\"type\":\"done\"")) << replay.terminal;
  EXPECT_TRUE(has(replay.terminal,
                  "\"dedup_hits\":" + std::to_string(want.rows.size())))
      << replay.terminal;
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(second).exit_code, 0);
}

// ------------------------------------------------- key-collision fallback
// The 64-bit FNV-1a request key is only a journal index; the canonical
// bytes stored as the req: value are the identity.  Simulate a hash
// collision by pre-seeding the journal with a *different* request's
// canonical bytes under exactly the key our request hashes to: the
// daemon must fall back to a suffixed key instead of silently answering
// with (or overwriting) the other request's journal state.

TEST_F(DaemonTest, HashCollisionFallsBackToSuffixedJournalKey) {
  // Local replica of the daemon's canonical form + FNV-1a key for a
  // sleep request.  If the identity format ever drifts, the suffix
  // assertions below fail loudly -- that format is a journal
  // compatibility contract, not an implementation detail.
  const std::string canonical = "{\"op\":\"sleep\",\"seconds\":" + util::json_double(0.05) + "}";
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : canonical) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char key[17];
  std::snprintf(key, sizeof(key), "%016llx", static_cast<unsigned long long>(h));

  const std::string other = "{\"op\":\"sleep\",\"seconds\":" + util::json_double(0.01) + "}";
  fs::create_directories(state("a"));
  {
    util::Journal j;
    j.open(state("a") + "/requests.mtj");
    j.append(std::string("req:") + key, other);
    j.close();
  }

  // Boot resumes the seeded (valid, unfinished) request headless, then
  // the colliding request must still run and journal under "<key>-1".
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"resumed\":1"));
  const Stream s = exchange(*ch, "{\"op\":\"sleep\",\"seconds\":0.05}");
  EXPECT_TRUE(has(s.ack, std::string("\"req\":\"") + key + "-1\"")) << s.ack;
  EXPECT_TRUE(has(s.terminal, "\"type\":\"done\"")) << s.terminal;
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(child).exit_code, 0);

  util::Journal j;
  j.open(state("a") + "/requests.mtj");
  const std::optional<std::string> seeded = j.find(std::string("req:") + key);
  ASSERT_TRUE(seeded.has_value());
  EXPECT_EQ(*seeded, other);  // the colliding request did not clobber it
  const std::optional<std::string> ours = j.find(std::string("req:") + key + "-1");
  ASSERT_TRUE(ours.has_value());
  EXPECT_EQ(*ours, canonical);
  EXPECT_TRUE(j.contains(std::string("done:") + key + "-1"));
}

// ------------------------------------------------------------- sharding

TEST_F(DaemonTest, ShardedRankMatchesSerialByteForByte) {
  const ChildProcess serial = start(state("serial"), 8, /*shards=*/1);
  auto ch = connect();
  const Stream want = exchange(*ch, kRank);
  ASSERT_TRUE(has(want.terminal, "\"type\":\"done\"")) << want.terminal;
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(serial).exit_code, 0);

  const ChildProcess sharded = start(state("sharded"), 8, /*shards=*/2);
  ch = connect();
  const Stream got = exchange(*ch, kRank, 300000);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_TRUE(has(got.terminal, "\"type\":\"done\"")) << got.terminal;
  // A sharded daemon has no replay lane: the repeat queues on the
  // executor and replays the same bytes from the store.
  const Stream again = exchange(*ch, kRank, 300000);
  EXPECT_EQ(again.rows, want.rows);
  EXPECT_TRUE(has(again.terminal, "\"type\":\"done\"")) << again.terminal;
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(sharded).exit_code, 0);
}

// -------------------------------------------------------------- framing
// Rows travel in frames of whole lines, so every row must still precede
// its request's terminal line, also when the request ends in an error.

TEST_F(DaemonTest, RowsOfAFailedRequestArriveBeforeItsErrorLine) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  // No W/L meets a 1e-6 % target: the first probe streams one value row
  // per adder1 transition (all 16 of them), then the sizing fails.
  const Stream s = exchange(
      *ch, "{\"op\":\"size\",\"circuit\":\"builtin:adder1\",\"target_pct\":0.000001}");
  EXPECT_TRUE(has(s.terminal, "\"code\":\"failed\"")) << s.terminal;
  ASSERT_EQ(s.rows.size(), 16u);
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    EXPECT_EQ(json_field(s.rows[i], "index"), static_cast<long>(i));
  }
  // Nothing trails the error line: the next line answers the next op.
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"type\":\"status\""));
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

TEST_F(DaemonTest, RowsOfADeadlinedRequestArriveBeforeItsErrorLine) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  // The 4096 SPICE transitions of adder3 take far longer than the 2 s
  // deadline; the items finished by then stream as rows, the rest are
  // cancelled when the poll tick raises the request's token.
  const Stream s = exchange(*ch,
                            "{\"op\":\"rank\",\"circuit\":\"builtin:adder3\",\"backend\":"
                            "\"spice\",\"wl\":6,\"deadline_s\":2}",
                            120000);
  EXPECT_TRUE(has(s.terminal, "\"code\":\"deadline\"")) << s.terminal;
  EXPECT_FALSE(s.rows.empty());
  EXPECT_LT(s.rows.size(), 4096u) << "the sweep beat its deadline";
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    EXPECT_EQ(json_field(s.rows[i], "index"), static_cast<long>(i));
  }
  EXPECT_TRUE(ch->send("{\"op\":\"status\"}"));
  EXPECT_TRUE(has(recv_line(*ch), "\"type\":\"status\""));
  // The deadlined request stays journaled and finishes headless at the
  // next boot; this life need not wait for it.
  util::send_signal(child.pid, SIGTERM);
  wait_exit(child);
}

// ---------------------------------------------------------- replay lane
// A repeat of a completed rank request is answered from the store on the
// replay lane, beside whatever the executor is running.

TEST_F(DaemonTest, RepeatRankIsAnsweredWhileTheExecutorIsBusy) {
  const ChildProcess child = start(state("a"));
  auto ranker = connect();
  const Stream first = exchange(*ranker, kRank);
  ASSERT_TRUE(has(first.terminal, "\"type\":\"done\"")) << first.terminal;

  // The executor is now busy for 30 s; the repeat must not queue behind.
  auto sleeper = connect();
  EXPECT_TRUE(sleeper->send("{\"op\":\"sleep\",\"seconds\":30}"));
  EXPECT_TRUE(has(recv_line(*sleeper), "\"type\":\"ack\""));
  const Stream repeat = exchange(*ranker, kRank, 15000);
  EXPECT_EQ(repeat.rows, first.rows);
  EXPECT_TRUE(has(repeat.terminal, "\"type\":\"done\"")) << repeat.terminal;
  EXPECT_TRUE(has(repeat.terminal, "\"dedup_hits\":" + std::to_string(first.rows.size())))
      << repeat.terminal;
  EXPECT_TRUE(has(repeat.terminal, "\"dedup_misses\":0")) << repeat.terminal;

  EXPECT_TRUE(ranker->send("{\"op\":\"status\"}"));
  const std::string status = recv_line(*ranker);
  EXPECT_TRUE(has(status, "\"completed\":2")) << status;  // the sleep still runs
  util::send_signal(child.pid, SIGTERM);
  EXPECT_EQ(wait_exit(child).exit_code, 3);  // the sleep was interrupted
}

TEST_F(DaemonTest, RepeatWhoseItemsLeftTheStoreIsRecomputedByTheExecutor) {
  const ChildProcess first_life = start(state("a"));
  auto ch = connect();
  const Stream first = exchange(*ch, kRank);
  ASSERT_TRUE(has(first.terminal, "\"type\":\"done\"")) << first.terminal;
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(first_life).exit_code, 0);

  // The request journal still says "done", but the store is gone: the
  // lane must hand the repeat to the executor, which recomputes it.
  fs::remove(fs::path(state("a")) / "store.mtj");
  const ChildProcess second_life = start(state("a"));
  ch = connect();
  const Stream again = exchange(*ch, kRank);
  EXPECT_EQ(again.rows, first.rows);
  EXPECT_TRUE(has(again.terminal, "\"type\":\"done\"")) << again.terminal;
  EXPECT_TRUE(has(again.terminal, "\"dedup_hits\":0")) << again.terminal;
  EXPECT_TRUE(has(again.terminal, "\"dedup_misses\":" + std::to_string(first.rows.size())))
      << again.terminal;
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(second_life).exit_code, 0);
}

TEST_F(DaemonTest, PipelinedRepeatWaitsForItsConnectionsEarlierRequest) {
  const ChildProcess child = start(state("a"));
  auto ch = connect();
  const Stream first = exchange(*ch, kRank);
  ASSERT_TRUE(has(first.terminal, "\"type\":\"done\"")) << first.terminal;

  // A repeat pipelined behind a sleep on the same connection does not
  // take the lane: its rows follow the sleep's done line.
  EXPECT_TRUE(ch->send("{\"op\":\"sleep\",\"seconds\":0.3}"));
  EXPECT_TRUE(ch->send(kRank));
  std::vector<std::string> lines;
  std::string line;
  int done = 0;
  while (done < 2 && ch->recv(line, 15000)) {
    lines.push_back(line);
    if (has(line, "\"type\":\"done\"")) ++done;
  }
  ASSERT_EQ(done, 2);
  std::size_t sleep_done = lines.size(), first_row = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (has(lines[i], "\"op\":\"sleep\"") && has(lines[i], "\"type\":\"done\"")) sleep_done = i;
    if (has(lines[i], "\"type\":\"row\"") && first_row == lines.size()) first_row = i;
  }
  EXPECT_LT(sleep_done, first_row);
  EXPECT_TRUE(ch->send("{\"op\":\"drain\"}"));
  EXPECT_EQ(wait_exit(child).exit_code, 0);
}

// The row encoders against the line concatenation they replaced.
std::string bits_oracle(const std::vector<bool>& bits) {
  std::string out;
  for (const bool b : bits) out += b ? '1' : '0';
  return out;
}

TEST(RowEncoding, MatchesTheConcatenatedLineForRandomRows) {
  std::mt19937_64 gen(7);
  const auto random_double = [&] {
    switch (gen() % 4) {
      case 0: return std::bit_cast<double>(gen());  // any pattern, NaN/inf included
      case 1: return static_cast<double>(static_cast<std::int64_t>(gen() % 2001) - 1000);
      case 2: return std::ldexp(static_cast<double>(gen() % 1000000), -40);
      default: return (static_cast<double>(gen() % 1000000) - 5e5) * 1e-4;
    }
  };
  const auto random_bits = [&](std::size_t n) {
    std::vector<bool> bits(n);
    for (std::size_t i = 0; i < n; ++i) bits[i] = (gen() & 1u) != 0;
    return bits;
  };
  std::string stream;
  std::string want_stream;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string req = bits_oracle(random_bits(1 + gen() % 16));
    const std::size_t index = trial % 7 == 0 ? gen() : gen() % 100000;
    const std::size_t n = gen() % 20;
    sizing::VectorDelay row;
    row.pair = {random_bits(n), random_bits(n)};
    row.delay_cmos = random_double();
    row.delay_mtcmos = random_double();
    row.degradation_pct = random_double();
    const std::string want =
        "{\"type\":\"row\",\"req\":\"" + req + "\",\"index\":" + std::to_string(index) +
        ",\"v0\":\"" + bits_oracle(row.pair.v0) + "\",\"v1\":\"" + bits_oracle(row.pair.v1) +
        "\",\"delay_cmos\":" + util::json_double(row.delay_cmos) +
        ",\"delay_mtcmos\":" + util::json_double(row.delay_mtcmos) +
        ",\"degradation_pct\":" + util::json_double(row.degradation_pct) + "}\n";
    std::string got;
    sizing::append_row_line(got, req, index, row);
    ASSERT_EQ(got, want);

    const double value = random_double();
    const std::string want_value = "{\"type\":\"value\",\"req\":\"" + req +
                                   "\",\"index\":" + std::to_string(index) +
                                   ",\"value\":" + util::json_double(value) + "}\n";
    got.clear();
    sizing::append_value_line(got, req, index, value);
    ASSERT_EQ(got, want_value);

    // Appending into a shared frame is plain concatenation.
    sizing::append_row_line(stream, req, index, row);
    sizing::append_value_line(stream, req, index, value);
    want_stream += want + want_value;
  }
  EXPECT_EQ(stream, want_stream);
}

}  // namespace
}  // namespace mtcmos
