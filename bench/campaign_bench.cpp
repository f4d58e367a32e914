// Campaign streaming benchmark (the perf gate behind `ctest -L perf`,
// suite "campaign").
//
// Two legs:
//
//   identity  A small corner-crossed campaign (2-bit adder) runs fresh
//             in-process and again supervised with two worker shards;
//             the two characterization tables must be byte-identical
//             (the columnar merge determinism contract).
//
//   streaming The acceptance-scale campaign -- builtin:mult4, 3 corners
//             x 6 W/L points x 65536 exhaustive vector pairs, about
//             1.18M result rows -- runs end to end through the columnar
//             spill pipeline.  The leg reports throughput (rows/s) and
//             the peak-RSS growth across the run, and asserts the
//             growth stays far below what holding the row set in memory
//             would cost (~200 MB): the streaming pipeline must keep
//             its footprint at one chunk block, not one campaign.  It
//             also reports (ungated) its CPU utilization: process CPU
//             seconds / (pool threads x wall seconds), which falls when
//             cores idle between chunks.
//
// Writes BENCH_campaign.json (including the MTCMOS_NATIVE flag so
// scripts/check_bench.py never compares throughput across ISAs).
// Exits nonzero when the tables diverge or the RSS bound is violated.
//
//   campaign_bench [--json PATH] [--only campaign]

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "sizing/campaign.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;
using mtcmos::sizing::CampaignDriver;
using mtcmos::sizing::CampaignSpec;
using mtcmos::sizing::CampaignStats;

namespace {

const char* kSmallSpec = R"({
  "circuit": "builtin:adder2",
  "target_pct": 10.0,
  "wl_grid": [10, 40, 160],
  "corners": [
    { "name": "nominal" },
    { "name": "slow", "vdd_scale": 0.95, "vt_high_shift": 0.05, "temp": 358.15 }
  ],
  "chunk": 64
})";

const char* kBigSpec = R"({
  "circuit": "builtin:mult4",
  "target_pct": 8.0,
  "wl_grid": [10, 20, 40, 80, 160, 320],
  "corners": [
    { "name": "nominal" },
    { "name": "slow", "vdd_scale": 0.95, "vt_low_shift": 0.02, "vt_high_shift": 0.05,
      "temp": 358.15 },
    { "name": "fast_hot", "vdd_scale": 1.05, "kp_scale": 1.1, "temp": 398.15 }
  ],
  "chunk": 4096
})";

/// Peak resident set size so far, in MB (Linux ru_maxrss is in KB).
double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// User + system CPU seconds this process has used so far.
double cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

std::string table_of(CampaignDriver& driver) {
  std::ostringstream os;
  driver.write_table(os);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_campaign.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--only" && i + 1 < argc) {
      const std::string only = argv[++i];
      if (only != "campaign") {
        std::cerr << "campaign_bench: --only expects campaign\n";
        return 2;
      }
    } else {
      std::cerr << "usage: campaign_bench [--json PATH] [--only campaign]\n";
      return arg == "--help" ? 0 : 2;
    }
  }

  const fs::path root =
      fs::temp_directory_path() / ("campaign_bench." + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  // Leg 1: in-process vs sharded tables must match byte for byte.
  const auto small = CampaignSpec::parse(kSmallSpec);
  CampaignDriver fresh(small, (root / "small_fresh").string(), false);
  const CampaignStats fstats = fresh.run();
  CampaignDriver sharded(small, (root / "small_sharded").string(), false);
  const CampaignStats sstats = sharded.run(2);
  const bool identical = fstats.complete && sstats.complete &&
                         sstats.chunks_poisoned == 0 && table_of(fresh) == table_of(sharded);
  std::cout << "identity leg: adder2 x 2 corners x 3 W/L, in-process vs 2 shards: "
            << (identical ? "byte-identical" : "DIVERGED") << "\n";

  // Leg 2: the acceptance-scale streaming campaign.
  using Clock = std::chrono::steady_clock;
  const auto big = CampaignSpec::parse(kBigSpec);
  CampaignDriver driver(big, (root / "big").string(), false);
  const double rss_before = peak_rss_mb();
  const double cpu_before = cpu_seconds();
  const auto t0 = Clock::now();
  const CampaignStats stats = driver.run();
  std::string table;
  if (stats.complete) table = table_of(driver);
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  const double cpu_used = cpu_seconds() - cpu_before;
  const double rss_after = peak_rss_mb();
  const int threads = mtcmos::util::ThreadPool::global().thread_count();
  const double cpu_utilization = seconds > 0.0 ? cpu_used / (threads * seconds) : 0.0;

  const double rows = static_cast<double>(stats.rows_emitted);
  const double rows_per_second = seconds > 0.0 ? rows / seconds : 0.0;
  const double rss_delta_mb = rss_after - rss_before;
  // ~1.18M rows at ~200 bytes apiece is ~225 MB resident for an
  // in-memory pipeline; the streaming path must stay far below that.
  const bool rss_bounded = stats.complete && rss_delta_mb < 128.0;
  const std::uintmax_t store_bytes =
      stats.complete ? fs::file_size(driver.store_path()) : 0;

#ifdef MTCMOS_NATIVE_BUILD
  const bool march_native = true;
#else
  const bool march_native = false;
#endif

  std::cout << "streaming leg: mult4 x 3 corners x 6 W/L x " << driver.n_vectors()
            << " vectors = " << rows << " rows in " << driver.n_chunks() << " chunks\n"
            << "  complete: " << (stats.complete ? "yes" : "NO") << "\n"
            << "  wall: " << seconds << " s  (" << rows_per_second << " rows/s)\n"
            << "  cpu utilization: " << cpu_utilization << "  (" << cpu_used << " CPU-s on "
            << threads << " threads; ungated)\n"
            << "  columnar store: " << static_cast<double>(store_bytes) / (1024.0 * 1024.0)
            << " MB on disk\n"
            << "  peak RSS growth: " << rss_delta_mb << " MB  (bound 128 MB: "
            << (rss_bounded ? "ok" : "EXCEEDED") << ")\n"
            << "  table: " << table.size() << " bytes\n"
            << "  march_native: " << (march_native ? "yes" : "no") << "\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "campaign_bench: cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"campaign_streaming\",\n"
       << "  \"circuit\": \"csa_mult_4bit\",\n"
       << "  \"corners\": 3,\n"
       << "  \"wl_points\": 6,\n"
       << "  \"vectors\": " << driver.n_vectors() << ",\n"
       << "  \"rows\": " << stats.rows_emitted << ",\n"
       << "  \"chunk\": " << big.chunk << ",\n"
       << "  \"seconds\": " << seconds << ",\n"
       << "  \"rows_per_second\": " << rows_per_second << ",\n"
       << "  \"cpu_utilization\": " << cpu_utilization << ",\n"
       << "  \"rss_delta_mb\": " << rss_delta_mb << ",\n"
       << "  \"rss_bounded\": " << (rss_bounded ? "true" : "false") << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"march_native\": " << (march_native ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << "\n";

  fs::remove_all(root);
  return identical && rss_bounded ? 0 : 1;
}
