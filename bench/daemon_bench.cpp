// mtcmos_sizerd benchmark (the perf gate behind `ctest -L perf`,
// suite "daemon").
//
// Forks a daemon on a scratch state directory and measures the two
// numbers a sizing-as-a-service deployment lives on:
//
//   latency   Round-trip time of a `status` request (poll-loop answer,
//             no executor involvement): mean and p50 over many pings.
//
//   dedup     A rank request is run once to populate the shared
//             checkpoint store, then repeated; the repeats replay every
//             row from the store (dedup hits, zero simulation) and are
//             the daemon's hot path under library-characterization
//             traffic.  The leg reports streamed rows/s across the
//             repeats and requires each repeat's row stream to be
//             byte-identical to the first run (checkpoint-replay
//             identity through the socket).
//
//   fresh     Rank requests on the same circuit, each at a W/L no request
//             has used (every item is a store miss): the warm evaluation
//             context's path, where only the sized circuit is simulated.
//             Reports streamed rows/s (not gated).
//
// Writes BENCH_daemon.json (including the MTCMOS_NATIVE flag so
// scripts/check_bench.py never compares throughput across ISAs).
// Exits nonzero when a repeat diverges or the daemon misbehaves.
//
//   daemon_bench [--json PATH] [--only daemon]

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sizing/daemon.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using mtcmos::sizing::Daemon;
using mtcmos::sizing::DaemonOptions;
using mtcmos::util::LineChannel;

namespace {

constexpr int kStatusPings = 2000;
constexpr int kDedupRepeats = 30;
constexpr int kFreshRequests = 30;
constexpr char kRank[] = "{\"op\":\"rank\",\"circuit\":\"builtin:adder2\",\"wl\":6}";

/// kRank at a W/L of 7 + i, which no other request of the run uses.
std::string fresh_rank(int i) {
  return "{\"op\":\"rank\",\"circuit\":\"builtin:adder2\",\"wl\":" + std::to_string(7 + i) +
         "}";
}

/// Collect one request's response stream; returns row/value lines.
bool collect(LineChannel& ch, const std::string& request, std::vector<std::string>& rows) {
  rows.clear();
  if (!ch.send(request)) return false;
  std::string line;
  while (ch.recv(line, 120000)) {
    if (line.find("\"type\":\"row\"") != std::string::npos ||
        line.find("\"type\":\"value\"") != std::string::npos) {
      rows.push_back(line);
    } else if (line.find("\"type\":\"done\"") != std::string::npos) {
      return true;
    } else if (line.find("\"type\":\"ack\"") == std::string::npos) {
      std::cerr << "daemon_bench: unexpected line: " << line << "\n";
      return false;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_daemon.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--only" && i + 1 < argc) {
      const std::string only = argv[++i];
      if (only != "daemon") {
        std::cerr << "daemon_bench: --only expects daemon\n";
        return 2;
      }
    } else {
      std::cerr << "usage: daemon_bench [--json PATH] [--only daemon]\n";
      return 2;
    }
  }

  const fs::path root = fs::temp_directory_path() / ("daemon_bench." + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  DaemonOptions opt;
  opt.socket_path = (root / "d.sock").string();
  opt.state_dir = (root / "state").string();
  opt.poll_interval_ms = 10;
  const mtcmos::util::ChildProcess daemon =
      mtcmos::util::spawn_child([opt](int) -> int { return Daemon::exit_code(Daemon(opt).serve()); });
  mtcmos::util::close_fd(daemon.pipe_fd);

  int fd = -1;
  for (int i = 0; i < 500 && fd < 0; ++i) {
    try {
      fd = mtcmos::util::unix_connect(opt.socket_path);
    } catch (const std::exception&) {
      ::usleep(10000);
    }
  }
  if (fd < 0) {
    std::cerr << "daemon_bench: daemon did not come up\n";
    mtcmos::util::send_signal(daemon.pid, SIGKILL);
    mtcmos::util::reap(daemon.pid);
    return 1;
  }
  LineChannel ch(fd);

  // Leg 1: status round-trip latency.
  std::vector<double> rtt_us;
  rtt_us.reserve(kStatusPings);
  std::string line;
  for (int i = 0; i < kStatusPings; ++i) {
    const auto t0 = Clock::now();
    if (!ch.send("{\"op\":\"status\"}") || !ch.recv(line, 60000)) {
      std::cerr << "daemon_bench: status ping " << i << " failed\n";
      return 1;
    }
    rtt_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  std::sort(rtt_us.begin(), rtt_us.end());
  double rtt_sum = 0.0;
  for (const double v : rtt_us) rtt_sum += v;
  const double rtt_mean_us = rtt_sum / static_cast<double>(rtt_us.size());
  const double rtt_p50_us = rtt_us[rtt_us.size() / 2];

  // Leg 2: populate the store once, then stream dedup-hit replays.
  std::vector<std::string> first;
  if (!collect(ch, kRank, first) || first.empty()) {
    std::cerr << "daemon_bench: warmup rank failed\n";
    return 1;
  }
  bool identical = true;
  std::vector<std::string> rows;
  const auto t0 = Clock::now();
  for (int r = 0; r < kDedupRepeats; ++r) {
    if (!collect(ch, kRank, rows)) {
      std::cerr << "daemon_bench: dedup repeat " << r << " failed\n";
      return 1;
    }
    identical = identical && rows == first;
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  const double total_rows = static_cast<double>(first.size()) * kDedupRepeats;
  const double rows_per_second = seconds > 0.0 ? total_rows / seconds : 0.0;

  // Leg 3: fresh W/Ls on the circuit the daemon already knows.
  std::size_t fresh_rows = 0;
  const auto f0 = Clock::now();
  for (int r = 0; r < kFreshRequests; ++r) {
    if (!collect(ch, fresh_rank(r), rows) || rows.size() != first.size()) {
      std::cerr << "daemon_bench: fresh request " << r << " failed\n";
      return 1;
    }
    fresh_rows += rows.size();
  }
  const double fresh_seconds = std::chrono::duration<double>(Clock::now() - f0).count();
  const double fresh_rows_per_second =
      fresh_seconds > 0.0 ? static_cast<double>(fresh_rows) / fresh_seconds : 0.0;

  ch.send("{\"op\":\"drain\"}");
  ch.close();
  const mtcmos::util::ExitStatus st = mtcmos::util::reap(daemon.pid);
  const bool clean_exit = !st.signaled && st.exit_code == 0;

#ifdef MTCMOS_NATIVE_BUILD
  const bool march_native = true;
#else
  const bool march_native = false;
#endif

  std::cout << "latency leg: " << kStatusPings << " status pings: mean " << rtt_mean_us
            << " us, p50 " << rtt_p50_us << " us\n"
            << "dedup leg: " << kDedupRepeats << " replayed rank requests x " << first.size()
            << " rows in " << seconds << " s (" << rows_per_second << " rows/s)\n"
            << "  repeats byte-identical: " << (identical ? "yes" : "NO") << "\n"
            << "fresh leg: " << kFreshRequests << " rank requests at new W/Ls x " << first.size()
            << " rows in " << fresh_seconds << " s (" << fresh_rows_per_second << " rows/s)\n"
            << "  daemon drained clean: " << (clean_exit ? "yes" : "NO") << "\n"
            << "  march_native: " << (march_native ? "yes" : "no") << "\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "daemon_bench: cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"daemon_service\",\n"
       << "  \"circuit\": \"builtin:adder2\",\n"
       << "  \"status_pings\": " << kStatusPings << ",\n"
       << "  \"rtt_mean_us\": " << rtt_mean_us << ",\n"
       << "  \"rtt_p50_us\": " << rtt_p50_us << ",\n"
       << "  \"dedup_repeats\": " << kDedupRepeats << ",\n"
       << "  \"rows\": " << static_cast<std::size_t>(total_rows) << ",\n"
       << "  \"seconds\": " << seconds << ",\n"
       << "  \"rows_per_second\": " << rows_per_second << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"fresh_requests\": " << kFreshRequests << ",\n"
       << "  \"fresh_seconds\": " << fresh_seconds << ",\n"
       << "  \"fresh_rows_per_second\": " << fresh_rows_per_second << ",\n"
       << "  \"clean_exit\": " << (clean_exit ? "true" : "false") << ",\n"
       << "  \"march_native\": " << (march_native ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << "\n";

  fs::remove_all(root);
  return identical && clean_exit ? 0 : 1;
}
