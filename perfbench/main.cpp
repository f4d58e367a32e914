// Benchmark harness: runs one workload and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}.  Untraced runs
// report the end-to-end metrics, traced runs (--trace 1) the per-layer
// ones.  perfbench/run.py builds this binary and is the entry point.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR --trace-dir DIR [--smoke] [--commit ID]

#include <sched.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"fresh_items_per_s", "items/s"},
    {"replay_items_per_s", "items/s"},
    {"fresh_p50_ms", "ms"},
    {"replay_p50_ms", "ms"},
};

constexpr MetricSpec kLayers[] = {
    {"core.batch_calls", "count"},
    {"core.batch_busy_s", "s"},
    {"core.ns_per_vector", "ns"},
    {"core.scalar_calls", "count"},
    {"sizing.backend.sim_hit_ratio", "ratio"},
    {"sizing.backend.sim_lookups", "count"},
    {"sizing.backend.baseline_hit_ratio", "ratio"},
    {"sizing.backend.baseline_lookups", "count"},
    {"sizing.session.rank_vectors_stream_s", "s"},
    {"sizing.session.size_for_degradation_s", "s"},
    {"sizing.session.rank_vectors_s", "s"},
    {"sizing.session.replay_s", "s"},
    {"sizing.session.self_s", "s"},
    {"sizing.session.replay_self_s", "s"},
    {"sizing.checkpoint.record_us", "us"},
    {"sizing.checkpoint.lookup_us", "us"},
    {"sizing.checkpoint.open_s", "s"},
    {"util.journal.bytes_per_item", "B"},
    {"sizing.checkpoint.overhead_pct", "%"},
    {"sizing.result_sink.emit_calls", "count"},
    {"sizing.result_sink.busy_s", "s"},
    {"sizing.daemon.ack_ms", "ms"},
    {"sizing.daemon.eval_ms", "ms"},
    {"sizing.daemon.stream_ms", "ms"},
    {"sizing.daemon.dedup_ack_ms", "ms"},
    {"sizing.daemon.dedup_eval_ms", "ms"},
    {"sizing.daemon.dedup_stream_ms", "ms"},
    {"sizing.daemon.parts_over_p50", "ratio"},
    {"sizing.daemon.fresh_p90_ms", "ms"},
    {"sizing.daemon.dedup_p90_ms", "ms"},
    {"util.socket.bytes_per_row", "B"},
    {"sizing.daemon.dedup_hit_ratio", "ratio"},
    {"sizing.daemon.kernel_share", "ratio"},
    {"sizing.daemon.requests_per_s", "1/s"},
    {"sizing.campaign.open_s", "s"},
    {"sizing.campaign.corner_build_s", "s"},
    {"sizing.campaign.table_s", "s"},
    {"util.columnar.bytes_per_row", "B"},
    {"spice.measure_ms", "ms"},
    {"spice.device_evals", "count"},
    {"spice.bypass_hit_rate", "ratio"},
    {"spice.factorizations", "count"},
    {"spice.newton_iters", "count"},
    {"spice.vbs_delta_pts", "pts"},
    {"spice.vectors_per_s", "items/s"},
    {"proc.user_s", "s"},
    {"proc.sys_s", "s"},
    {"proc.ctx_switches", "count"},
    {"proc.write_syscalls", "count"},
    {"proc.write_bytes", "B"},
    {"trace.fresh_overhead_pct", "%"},
    {"trace.replay_overhead_pct", "%"},
};

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

int usage() {
  std::cerr << "usage: perfbench_harness --workload sweep_ckpt|daemon_mix|campaign_corners "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --trace-dir DIR "
               "[--smoke] [--commit ID]\n";
  return 2;
}

/// Keep exactly the metrics the mode reports; an end-to-end metric the
/// workload failed to produce, or any non-finite one, fails the run.
void finalize(RunResult& r, bool traced) {
  std::map<std::string, Metric> out;
  const auto take = [&](const MetricSpec& spec, bool default_zero) {
    const auto it = r.metrics.find(spec.name);
    if (it == r.metrics.end()) {
      if (!default_zero) r.check(false, std::string("metric produced: ") + spec.name);
      out[spec.name] = {0.0, spec.unit};
      return;
    }
    r.check(std::isfinite(it->second.value) && it->second.unit == spec.unit,
            std::string("metric finite with its unit: ") + spec.name);
    out[spec.name] = {std::isfinite(it->second.value) ? it->second.value : 0.0, spec.unit};
  };
  if (traced) {
    // A layer the workload does not exercise reads 0.
    for (const MetricSpec& spec : kLayers) take(spec, true);
  } else {
    for (const MetricSpec& spec : kEndToEnd) take(spec, false);
  }
  r.metrics.swap(out);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string workload, commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      cfg.traced = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir") {
      cfg.work_dir = argv[++i];
    } else if (arg == "--trace-dir") {
      cfg.trace_dir = argv[++i];
    } else if (arg == "--commit") {
      commit = argv[++i];
    } else {
      return usage();
    }
  }
  if (cfg.work_dir.empty() || cfg.trace_dir.empty()) return usage();

  const int nproc = usable_cpus();
  cfg.threads = std::min(4, nproc);
  // Every pool the library creates on its own (the global pool behind
  // campaigns and the daemon) gets the same size as the harness pools.
  ::setenv("MTCMOS_THREADS", std::to_string(cfg.threads).c_str(), 1);
  std::filesystem::create_directories(cfg.work_dir);

  RunResult r;
  try {
    if (workload == "sweep_ckpt") {
      run_sweep_ckpt(cfg, r);
    } else if (workload == "daemon_mix") {
      run_daemon_mix(cfg, r);
    } else if (workload == "campaign_corners") {
      run_campaign_corners(cfg, r);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    r.check(false, std::string("workload threw: ") + e.what());
  }
  finalize(r, cfg.traced);

#ifdef MTCMOS_NATIVE_BUILD
  const bool march_native = true;
#else
  const bool march_native = false;
#endif
  for (const std::string& line : r.notes) std::cout << line << "\n";
  std::cout << "provenance: {\"workload\":" << mtcmos::util::json_string(workload)
            << ",\"seed\":" << cfg.seed << ",\"seconds\":" << mtcmos::util::json_double(cfg.seconds)
            << ",\"trace\":" << (cfg.traced ? 1 : 0) << ",\"smoke\":" << (cfg.smoke ? "true" : "false")
            << ",\"nproc\":" << nproc << ",\"pool_threads\":" << cfg.threads
            << ",\"simd_isa\":\"" << mtcmos::bench::simd_isa()
            << "\",\"simd_lanes\":" << mtcmos::bench::simd_lanes()
            << ",\"march_native\":" << (march_native ? "true" : "false")
            << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"commit\":" << mtcmos::util::json_string(commit)
            << ",\"note\":\"model not validated against hardware; spice_vbs_delta_pts is error "
               "against the repository's SPICE engine only\"}\n";

  std::cout << "{\"correct\":" << (r.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << std::max<std::size_t>(r.attempted, 1)
            << ",\"failed\":" << r.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::cout << (first ? "" : ",") << mtcmos::util::json_string(name)
              << ":{\"value\":" << mtcmos::util::json_double(m.value)
              << ",\"unit\":" << mtcmos::util::json_string(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
