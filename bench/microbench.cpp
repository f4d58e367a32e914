// Engine benchmarks.
//
// Default mode runs the parallel sweep benchmark: the Section 6.2
// 4096-vector adder sweep, once on 1 thread and once on --threads N
// (default: MTCMOS_THREADS or all cores), verifies the two delay arrays
// are bit-identical, and writes the machine-readable BENCH_sweep.json so
// the throughput trajectory is tracked across PRs.  It then compares the
// per-vector evaluation cost of the two EvalBackend implementations
// (switch-level vs transistor-level) and writes BENCH_backend.json.
//
// Next comes the batch VBS kernel benchmark: the full 4096-vector adder
// sweep through the scalar per-vector path and through the SoA batch
// kernel single-threaded, 4096 sampled 4-bit multiplier transitions
// through both paths (mult4_speedup), plus a multi-threaded batch leg on
// min(4, threads) threads, verifying bit-identity of every leg and
// writing BENCH_vbs.json (including the MTCMOS_NATIVE flag and
// compile-time SIMD ISA, so perf baselines are never compared across
// instruction sets).  --only vbs.<sub> narrows the run to one leg.
//
// It then runs the SPICE hot-path benchmark: a sampled adder vector set
// through the transistor-level SpiceBackend, once with the accelerations
// off on 1 thread (the pre-pool, pre-bypass configuration) and once with
// the default accelerations on --threads N, verifies the pooled parallel
// delays are bit-identical to a 1-thread run of the same configuration,
// and writes BENCH_spice.json including the EngineStats counters.
//
//   microbench [--threads N] [--json PATH]
//              [--only sweep|backend|vbs[.scalar|.cohort]|spice]
//              [--batch N] [--gbench [gbench args...]]
//
// --only restricts the run to one of the four benchmarks (the perf
// regression ctests use --only spice / --only vbs); it also filters the
// --gbench micro-suite to the matching BM_* benchmarks unless an explicit
// --benchmark_filter is forwarded.  --batch sets the batch-kernel chunk
// size (default 256).  --gbench additionally runs the google-benchmark
// micro-suite (Eq. 5 solves, switch-level vector evaluations,
// transistor-level steps); remaining arguments are forwarded to
// google-benchmark.  See bench/README.md.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

#include "circuits/generators.hpp"
#include "core/vbs.hpp"
#include "core/vbs_batch.hpp"
#include "core/vx_solver.hpp"
#include "models/sleep_transistor.hpp"
#include "models/technology.hpp"
#include "netlist/bits.hpp"
#include "sizing/sizing.hpp"
#include "sizing/spice_ref.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using namespace mtcmos;
using namespace mtcmos::units;
using netlist::bits_from_uint;
using netlist::concat_bits;

void BM_VxSolve(benchmark::State& state) {
  const Technology t = tech07();
  double beta = 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_vx(1000.0, t.vdd, t.nmos_low, beta, false));
    beta = (beta < 1e-2) ? beta * 1.01 : 1e-4;
  }
}
BENCHMARK(BM_VxSolve);

void BM_VxSolveBodyEffect(benchmark::State& state) {
  const Technology t = tech07();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_vx(1000.0, t.vdd, t.nmos_low, 2e-3, true));
  }
}
BENCHMARK(BM_VxSolveBodyEffect);

void BM_VbsAdderVector(benchmark::State& state) {
  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  core::VbsOptions opt;
  opt.sleep_resistance = SleepTransistor(tech07(), 10.0).reff();
  const core::VbsSimulator sim(adder.netlist, opt);
  const auto v0 = concat_bits(bits_from_uint(0, 3), bits_from_uint(0, 3));
  const auto v1 = concat_bits(bits_from_uint(7, 3), bits_from_uint(1, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.critical_delay(v0, v1, outs));
  }
}
BENCHMARK(BM_VbsAdderVector);

void BM_VbsTreeVector(benchmark::State& state) {
  const auto tree = circuits::make_inverter_tree(tech07());
  core::VbsOptions opt;
  opt.sleep_resistance = SleepTransistor(tech07(), 8.0).reff();
  const core::VbsSimulator sim(tree.netlist, opt);
  const std::string leaf = tree.netlist.net_name(tree.leaves[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.delay({false}, {true}, "in", leaf));
  }
}
BENCHMARK(BM_VbsTreeVector);

void BM_VbsBatchChunk(benchmark::State& state) {
  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  core::VbsOptions opt;
  opt.sleep_resistance = SleepTransistor(tech07(), 10.0).reff();
  const core::VbsSimulator sim(adder.netlist, opt);
  const core::VbsBatchSimulator batch(sim);
  const auto pairs = sizing::all_vector_pairs(6);
  std::vector<core::VbsBatchItem> items;
  for (std::size_t i = 0; i < 64; ++i) items.push_back({&pairs[i].v0, &pairs[i].v1});
  core::VbsBatchWorkspace ws;
  std::vector<core::VbsLaneResult> results(items.size());
  for (auto _ : state) {
    batch.critical_delays(items.data(), items.size(), outs, ws, results.data());
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(items.size()));
}
BENCHMARK(BM_VbsBatchChunk);

void BM_SpiceAdderVector(benchmark::State& state) {
  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  sizing::SpiceRefOptions opt;
  opt.expand.sleep_wl = 10.0;
  opt.tstop = 10.0 * ns;
  opt.dt = 2.0 * ps;
  sizing::SpiceRef ref(adder.netlist, outs, opt);
  const sizing::VectorPair vp{concat_bits(bits_from_uint(0, 3), bits_from_uint(0, 3)),
                              concat_bits(bits_from_uint(7, 3), bits_from_uint(1, 3))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.measure(vp));
  }
}
BENCHMARK(BM_SpiceAdderVector);

void BM_SpiceDcAdder(benchmark::State& state) {
  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  netlist::ExpandOptions opt;
  opt.sleep_wl = 10.0;
  const auto in = concat_bits(bits_from_uint(5, 3), bits_from_uint(2, 3));
  auto ex = netlist::to_spice(adder.netlist, opt, in, in);
  spice::Engine eng(ex.circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.dc_operating_point(1.0));
  }
}
BENCHMARK(BM_SpiceDcAdder);

void BM_EngineBuildMultiplier8x8(benchmark::State& state) {
  const auto mult = circuits::make_csa_multiplier(tech03(), 8);
  netlist::ExpandOptions opt;
  opt.sleep_wl = 170.0;
  const auto zeros = std::vector<bool>(16, false);
  for (auto _ : state) {
    auto ex = netlist::to_spice(mult.netlist, opt, zeros, zeros);
    spice::Engine eng(ex.circuit);
    benchmark::DoNotOptimize(eng.unknown_count());
  }
}
BENCHMARK(BM_EngineBuildMultiplier8x8);

// Timed sweep of all 4096 adder vector pairs on `threads` threads.
// Returns the per-vector delays (index-addressed, scheduling-independent)
// and the wall time.
struct SweepRun {
  std::vector<double> delays;
  double seconds = 0.0;
};

SweepRun run_sweep(const core::VbsSimulator& sim, const std::vector<sizing::VectorPair>& pairs,
                   const std::vector<std::string>& outs, int threads) {
  using Clock = std::chrono::steady_clock;
  util::ThreadPool pool(threads);
  SweepRun out;
  const auto t0 = Clock::now();
  out.delays = pool.parallel_map(pairs.size(), [&](std::size_t i) {
    thread_local core::VbsWorkspace ws;
    return sim.critical_delay(pairs[i].v0, pairs[i].v1, outs, ws);
  });
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

int sweep_benchmark(int threads, const std::string& json_path) {
  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  const double wl = 10.0;
  core::VbsOptions opt;
  opt.sleep_resistance = SleepTransistor(tech07(), wl).reff();
  const core::VbsSimulator sim(adder.netlist, opt);
  const auto pairs = sizing::all_vector_pairs(6);

  const SweepRun serial = run_sweep(sim, pairs, outs, 1);
  const SweepRun parallel = run_sweep(sim, pairs, outs, threads);
  const bool identical = serial.delays == parallel.delays;

  const double n = static_cast<double>(pairs.size());
  const double serial_vps = n / serial.seconds;
  const double parallel_vps = n / parallel.seconds;
  const double speedup = serial.seconds / parallel.seconds;

  std::cout << "SWEEP sec62 3-bit adder, " << pairs.size() << " vector pairs, W/L = " << wl
            << "\n  serial   (1 thread):   " << serial.seconds << " s  (" << serial_vps
            << " vectors/s)\n  parallel (" << threads << " threads):  " << parallel.seconds
            << " s  (" << parallel_vps << " vectors/s)\n  speedup: " << speedup
            << "x   results bit-identical: " << (identical ? "yes" : "NO") << "\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "microbench: cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"sec62_sweep\",\n"
       << "  \"circuit\": \"ripple_adder_3bit\",\n"
       << "  \"vectors\": " << pairs.size() << ",\n"
       << "  \"sleep_wl\": " << wl << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"serial_seconds\": " << serial.seconds << ",\n"
       << "  \"parallel_seconds\": " << parallel.seconds << ",\n"
       << "  \"serial_vectors_per_sec\": " << serial_vps << ",\n"
       << "  \"parallel_vectors_per_sec\": " << parallel_vps << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << "\n";
  return identical ? 0 : 1;
}

// Per-vector evaluation cost of the two EvalBackend implementations over
// the same adder vector set and the same delay_at_wl code path.  Writes
// BENCH_backend.json so the fast/accurate cost ratio -- the quantity the
// paper's methodology trades on -- is tracked across PRs.
int backend_benchmark(const std::string& json_path) {
  using Clock = std::chrono::steady_clock;
  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  const double wl = 10.0;
  const auto pairs = sizing::all_vector_pairs(6);

  const sizing::VbsBackend vbs(adder.netlist, outs);
  sizing::SpiceBackendOptions sopt;
  sopt.tstop = 10.0 * ns;
  sopt.dt = 2.0 * ps;
  const sizing::SpiceBackend spice(adder.netlist, outs, sopt);

  // Evenly spaced sample; prepare_wl first so engine construction is not
  // billed to the per-vector figure.
  auto time_backend = [&](const sizing::EvalBackend& backend, std::size_t n) {
    backend.prepare_wl(wl);
    const auto t0 = Clock::now();
    double checksum = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      checksum += backend.delay_at_wl(pairs[s * pairs.size() / n], wl);
    }
    benchmark::DoNotOptimize(checksum);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const std::size_t vbs_n = 1024, spice_n = 16;
  const double vbs_s = time_backend(vbs, vbs_n);
  const double spice_s = time_backend(spice, spice_n);
  const double vbs_us = vbs_s / vbs_n * 1e6;
  const double spice_us = spice_s / spice_n * 1e6;
  const double ratio = spice_us / vbs_us;

  std::cout << "BACKEND per-vector eval cost (3-bit adder, W/L = " << wl
            << "):\n  vbs:    " << vbs_us << " us/vector (" << vbs_n
            << " vectors)\n  spice:  " << spice_us << " us/vector (" << spice_n
            << " vectors)\n  spice/vbs cost ratio: " << ratio << "x\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "microbench: cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"backend_eval\",\n"
       << "  \"circuit\": \"ripple_adder_3bit\",\n"
       << "  \"sleep_wl\": " << wl << ",\n"
       << "  \"vbs_vectors\": " << vbs_n << ",\n"
       << "  \"vbs_seconds\": " << vbs_s << ",\n"
       << "  \"vbs_us_per_vector\": " << vbs_us << ",\n"
       << "  \"spice_vectors\": " << spice_n << ",\n"
       << "  \"spice_seconds\": " << spice_s << ",\n"
       << "  \"spice_us_per_vector\": " << spice_us << ",\n"
       << "  \"spice_over_vbs\": " << ratio << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

// Batch VBS kernel benchmark (ROADMAP item 2): the full 4096-vector adder
// sweep through the scalar per-vector path (the bit-identity reference,
// always run) and through the SoA batch kernel in chunks of `batch` on one
// thread, plus a multi-threaded batch leg on min(4, threads) threads
// (chunks fan out over the thread pool, one workspace per thread), the
// configuration the <= 10 ms sweep target is specified against, and a
// 4-bit multiplier leg (below).  Every leg's delay array must be
// bit-identical to the scalar reference.  Legs are timed best-of-3 so the
// committed baseline is not hostage to a scheduler hiccup.  `sub`
// restricts the run (--only vbs.scalar|cohort; cohort also runs the
// multiplier leg, and empty adds the MT leg).  Writes BENCH_vbs.json
// including the MTCMOS_NATIVE flag and the compile-time SIMD ISA, so
// check_bench.py never compares speedups across instruction sets.
int vbs_benchmark(std::size_t batch, int threads, const std::string& sub,
                  const std::string& json_path) {
  using Clock = std::chrono::steady_clock;
  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  const double wl = 10.0;
  core::VbsOptions opt;
  opt.sleep_resistance = SleepTransistor(tech07(), wl).reff();
  const core::VbsSimulator sim(adder.netlist, opt);
  const auto pairs = sizing::all_vector_pairs(6);
  const std::size_t n = pairs.size();
  if (batch == 0) batch = 256;

  const auto best_of = [](int reps, const auto& leg) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = Clock::now();
      leg();
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      if (rep == 0 || s < best) best = s;
    }
    return best;
  };

  std::vector<double> scalar_delays(n);
  core::VbsWorkspace ws;
  const double scalar_s = best_of(3, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      scalar_delays[i] = sim.critical_delay(pairs[i].v0, pairs[i].v1, outs, ws);
    }
  });
  const double scalar_us = scalar_s / static_cast<double>(n) * 1e6;

  std::vector<core::VbsBatchItem> items;
  items.reserve(n);
  for (const auto& p : pairs) items.push_back({&p.v0, &p.v1});

  struct Leg {
    double seconds = 0.0;
    bool identical = true;
    bool ran = false;
  };
  std::vector<core::VbsLaneResult> lanes(n);
  const auto check = [&] {
    bool ident = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!lanes[i].ok || lanes[i].delay != scalar_delays[i]) ident = false;
    }
    return ident;
  };
  const auto us_of = [n](const Leg& l) { return l.seconds / static_cast<double>(n) * 1e6; };
  const core::VbsBatchSimulator bsim(sim);
  Leg cohort, mt;
  const bool all = sub.empty();
  if (all || sub == "cohort") {
    core::VbsBatchWorkspace bws;
    cohort.seconds = best_of(3, [&] {
      for (std::size_t off = 0; off < n; off += batch) {
        bsim.critical_delays(items.data() + off, std::min(batch, n - off), outs, bws,
                             lanes.data() + off);
      }
    });
    cohort.identical = check();
    cohort.ran = true;
  }

  // Wide-circuit leg: 4096 seeded sampled transitions of the 4-bit CSA
  // multiplier (96 gates, a few of them driving per lane at each
  // breakpoint) through the scalar path and through the batch kernel on
  // one thread at the same batch size, both timed best-of-3.  Every lane
  // must be bit-identical to the scalar reference (folded into
  // `identical`), and mult4_speedup (scalar / batch) is gated like the
  // adder's speedup.
  const double mult4_wl = 50.0;
  const std::size_t mult4_n = 4096;
  Leg mult4;
  double mult4_scalar_s = 0.0;
  if (all || sub == "cohort") {
    const auto mult = circuits::make_csa_multiplier(tech03(), 4);
    std::vector<std::string> mouts;
    for (const auto p : mult.p) mouts.push_back(mult.netlist.net_name(p));
    core::VbsOptions mopt;
    mopt.sleep_resistance = SleepTransistor(tech03(), mult4_wl).reff();
    const core::VbsSimulator msim(mult.netlist, mopt);
    const core::VbsBatchSimulator mbsim(msim);
    Rng rng(20261017);
    const auto mpairs = sizing::sampled_vector_pairs(static_cast<int>(mult.netlist.inputs().size()),
                                                     static_cast<int>(mult4_n), rng);
    std::vector<core::VbsBatchItem> mitems;
    mitems.reserve(mult4_n);
    for (const auto& p : mpairs) mitems.push_back({&p.v0, &p.v1});
    std::vector<core::VbsLaneResult> mlanes(mult4_n);
    core::VbsBatchWorkspace bws;
    mult4.seconds = best_of(3, [&] {
      for (std::size_t off = 0; off < mult4_n; off += batch) {
        mbsim.critical_delays(mitems.data() + off, std::min(batch, mult4_n - off), mouts, bws,
                              mlanes.data() + off);
      }
    });
    std::vector<double> mref(mult4_n);
    mult4_scalar_s = best_of(3, [&] {
      for (std::size_t i = 0; i < mult4_n; ++i) {
        mref[i] = msim.critical_delay(mpairs[i].v0, mpairs[i].v1, mouts, ws);
      }
    });
    for (std::size_t i = 0; i < mult4_n; ++i) {
      if (!mlanes[i].ok || mlanes[i].delay != mref[i]) mult4.identical = false;
    }
    mult4.ran = true;
  }

  const int mt_threads = std::min(4, std::max(1, threads));
  if (all) {
    // Chunks are disjoint lane ranges, so concurrent workers write
    // disjoint slices of `lanes`; each thread reuses its own workspace.
    util::ThreadPool pool(mt_threads);
    const std::size_t n_chunks = (n + batch - 1) / batch;
    mt.seconds = best_of(3, [&] {
      pool.parallel_for(n_chunks, [&](std::size_t c) {
        thread_local core::VbsBatchWorkspace tws;
        const std::size_t off = c * batch;
        bsim.critical_delays(items.data() + off, std::min(batch, n - off), outs, tws,
                             lanes.data() + off);
      });
    });
    mt.identical = check();
    mt.ran = true;
  }

#ifdef MTCMOS_NATIVE_BUILD
  const bool march_native = true;
#else
  const bool march_native = false;
#endif
  const bool identical = cohort.identical && mt.identical && mult4.identical;
  const double speedup = cohort.ran ? scalar_s / cohort.seconds : 1.0;
  const double mult4_us = mult4.seconds / static_cast<double>(mult4_n) * 1e6;
  const double mult4_scalar_us = mult4_scalar_s / static_cast<double>(mult4_n) * 1e6;

  std::cout << "VBS batch kernel, 3-bit adder, " << n << " vector pairs, W/L = " << wl
            << ", batch = " << batch << "\n  scalar   (1 thread): " << scalar_s << " s  ("
            << scalar_us << " us/vector)\n";
  if (cohort.ran) {
    std::cout << "  cohort   (1 thread): " << cohort.seconds << " s  (" << us_of(cohort)
              << " us/vector)" << (cohort.identical ? "" : "  NOT IDENTICAL") << "\n";
  }
  if (mult4.ran) {
    std::cout << "  mult4    (1 thread): scalar " << mult4_scalar_us << " us/vector, batch "
              << mult4_us << " us/vector  (" << mult4_n << " sampled, W/L = " << mult4_wl
              << ", speedup " << mult4_scalar_us / mult4_us << "x)"
              << (mult4.identical ? "" : "  NOT IDENTICAL") << "\n";
  }
  if (mt.ran) {
    std::cout << "  cohort   (" << mt_threads
              << (mt_threads == 1 ? " thread):  " : " threads): ") << mt.seconds << " s  ("
              << mt.seconds * 1e3 << " ms sweep)" << (mt.identical ? "" : "  NOT IDENTICAL")
              << "\n";
  }
  std::cout << "  speedup: " << speedup
            << "x   results bit-identical: " << (identical ? "yes" : "NO")
            << "\n  march_native: " << (march_native ? "yes" : "no")
            << "   simd_isa: " << bench::simd_isa() << " (" << bench::simd_lanes()
            << " double lanes)\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "microbench: cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"vbs_batch\",\n"
       << "  \"circuit\": \"ripple_adder_3bit\",\n"
       << "  \"vectors\": " << n << ",\n"
       << "  \"sleep_wl\": " << wl << ",\n"
       << "  \"batch\": " << batch << ",\n"
       << "  \"scalar_seconds\": " << scalar_s << ",\n"
       << "  \"scalar_us_per_vector\": " << scalar_us << ",\n";
  if (cohort.ran) {
    json << "  \"batch_seconds\": " << cohort.seconds << ",\n"
         << "  \"batch_us_per_vector\": " << us_of(cohort) << ",\n"
         << "  \"sweep_ms\": " << cohort.seconds * 1e3 << ",\n";
  }
  if (mult4.ran) {
    json << "  \"mult4_scalar_us_per_vector\": " << mult4_scalar_us << ",\n"
         << "  \"mult4_batch_us_per_vector\": " << mult4_us << ",\n"
         << "  \"mult4_speedup\": " << mult4_scalar_us / mult4_us << ",\n";
  }
  if (mt.ran) {
    json << "  \"mt_threads\": " << mt_threads << ",\n"
         << "  \"mt_sweep_ms\": " << mt.seconds * 1e3 << ",\n";
  }
  json << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"simd_isa\": \"" << bench::simd_isa() << "\",\n"
       << "  \"simd_lanes\": " << bench::simd_lanes() << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"march_native\": " << (march_native ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << "\n";
  return identical ? 0 : 1;
}

// SPICE hot-path benchmark: a sampled vector set through SpiceBackend's
// delay_at_wl path (the workload behind `rank_vectors --backend spice`).
//
//   legacy    = bypass off, Jacobian reuse off, 1 thread -- the pre-pool
//               configuration, where same-W/L callers serialized anyway;
//   optimized = default accelerations, 1 thread and `threads` threads.
//
// The optimized serial/parallel delay arrays must be bit-identical (the
// pool determinism contract); the speedup reported is legacy vs optimized
// parallel, i.e. what a sweep user actually gains from this PR.  Writes
// BENCH_spice.json including the aggregated EngineStats counters.
int spice_benchmark(int threads, const std::string& json_path) {
  using Clock = std::chrono::steady_clock;
  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  const double wl = 10.0;
  const auto all_pairs = sizing::all_vector_pairs(6);
  const std::size_t n_sample = 32;
  std::vector<sizing::VectorPair> pairs;
  for (std::size_t s = 0; s < n_sample; ++s) {
    pairs.push_back(all_pairs[s * all_pairs.size() / n_sample]);
  }

  sizing::SpiceBackendOptions base;
  base.tstop = 10.0 * ns;
  base.dt = 2.0 * ps;

  const auto run = [&](const sizing::SpiceBackend& backend, int nthreads) {
    backend.prepare_wl(wl);
    util::ThreadPool pool(nthreads);
    const auto t0 = Clock::now();
    std::vector<double> delays = pool.parallel_map(pairs.size(), [&](std::size_t i) {
      return backend.delay_at_wl(pairs[i], wl);
    });
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return std::pair<std::vector<double>, double>(std::move(delays), seconds);
  };

  sizing::SpiceBackendOptions legacy_opt = base;
  legacy_opt.bypass_tol = 0.0;
  legacy_opt.jacobian_reuse = false;
  const sizing::SpiceBackend legacy(adder.netlist, outs, legacy_opt);
  const auto [legacy_delays, legacy_s] = run(legacy, 1);

  const sizing::SpiceBackend fast(adder.netlist, outs, base);
  const auto [serial_delays, serial_s] = run(fast, 1);
  const auto [parallel_delays, parallel_s] = run(fast, threads);
  const bool identical = serial_delays == parallel_delays;
  const spice::EngineStats stats = fast.engine_stats();

  const double speedup = legacy_s / parallel_s;
  const double evals = static_cast<double>(stats.device_evals + stats.bypass_hits);
  const double hit_rate = evals > 0.0 ? static_cast<double>(stats.bypass_hits) / evals : 0.0;

  std::cout << "SPICE hot path, 3-bit adder, " << pairs.size() << " vector pairs, W/L = " << wl
            << "\n  legacy    (no bypass/reuse, 1 thread): " << legacy_s
            << " s\n  optimized (1 thread):                  " << serial_s
            << " s\n  optimized (" << threads << " threads):                 " << parallel_s
            << " s\n  speedup (legacy -> optimized parallel): " << speedup
            << "x\n  pooled parallel bit-identical to serial: " << (identical ? "yes" : "NO")
            << "\n  device_evals=" << stats.device_evals << " bypass_hits=" << stats.bypass_hits
            << " (hit rate " << hit_rate * 100.0 << "%)\n  factorizations=" << stats.factorizations
            << " solves=" << stats.solves << " newton_iters=" << stats.newton_iters
            << " full_newton_fallbacks=" << stats.full_newton_fallbacks
            << " workspace_bytes=" << stats.workspace_bytes << "\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "microbench: cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"spice_hotpath\",\n"
       << "  \"circuit\": \"ripple_adder_3bit\",\n"
       << "  \"vectors\": " << pairs.size() << ",\n"
       << "  \"sleep_wl\": " << wl << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"legacy_seconds\": " << legacy_s << ",\n"
       << "  \"optimized_serial_seconds\": " << serial_s << ",\n"
       << "  \"optimized_parallel_seconds\": " << parallel_s << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"device_evals\": " << stats.device_evals << ",\n"
       << "  \"bypass_hits\": " << stats.bypass_hits << ",\n"
       << "  \"bypass_hit_rate\": " << hit_rate << ",\n"
       << "  \"factorizations\": " << stats.factorizations << ",\n"
       << "  \"solves\": " << stats.solves << ",\n"
       << "  \"newton_iters\": " << stats.newton_iters << ",\n"
       << "  \"full_newton_fallbacks\": " << stats.full_newton_fallbacks << ",\n"
       << "  \"workspace_bytes\": " << stats.workspace_bytes << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << "\n";
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = util::ThreadPool::default_thread_count();
  std::size_t batch = 256;
  std::string json_path = "BENCH_sweep.json";
  std::string only;
  std::string vbs_sub;
  bool gbench = false;
  std::vector<char*> gbench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      if (threads < 1) threads = 1;
    } else if (arg == "--batch" && i + 1 < argc) {
      const int b = std::atoi(argv[++i]);
      batch = b < 1 ? 1 : static_cast<std::size_t>(b);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--only" && i + 1 < argc) {
      only = argv[++i];
      // The vbs suite takes leg sub-suites: --only vbs.cohort runs the
      // scalar reference plus the single-thread batch leg.
      if (only.rfind("vbs.", 0) == 0) {
        vbs_sub = only.substr(4);
        only = "vbs";
        if (vbs_sub != "scalar" && vbs_sub != "cohort") {
          std::cerr << "microbench: --only vbs.<sub> expects scalar or cohort\n";
          return 2;
        }
      } else if (only != "sweep" && only != "backend" && only != "vbs" && only != "spice") {
        std::cerr << "microbench: --only expects sweep, backend, vbs[.<sub>], or spice\n";
        return 2;
      }
    } else if (arg == "--gbench") {
      gbench = true;
    } else if (gbench) {
      gbench_args.push_back(argv[i]);  // forward to google-benchmark
    } else {
      std::cerr << "usage: microbench [--threads N] [--json PATH] "
                   "[--only sweep|backend|vbs[.scalar|.cohort]|spice] [--batch N] "
                   "[--gbench [gbench args...]]\n"
                   "  --only also filters the --gbench micro-suite (see bench/README.md)\n";
      return 2;
    }
  }

  if (only.empty() || only == "sweep") {
    const int rc = sweep_benchmark(threads, json_path);
    if (rc != 0) return rc;
  }
  if (only.empty() || only == "backend") {
    const int brc = backend_benchmark("BENCH_backend.json");
    if (brc != 0) return brc;
  }
  if (only.empty() || only == "vbs") {
    const int vrc = vbs_benchmark(batch, threads, vbs_sub, "BENCH_vbs.json");
    if (vrc != 0) return vrc;
  }
  if (only.empty() || only == "spice") {
    const int src = spice_benchmark(threads, "BENCH_spice.json");
    if (src != 0) return src;
  }

  if (gbench) {
    // --only also restricts the micro-suite: map the suite to its BM_*
    // family unless the caller forwarded an explicit --benchmark_filter.
    bool has_filter = false;
    for (const char* a : gbench_args) {
      if (std::string(a).rfind("--benchmark_filter", 0) == 0) has_filter = true;
    }
    std::string filter_arg;
    if (!only.empty() && !has_filter) {
      std::string pattern;
      if (only == "sweep" || only == "vbs") {
        pattern = "BM_Vbs.*|BM_VxSolve.*";
      } else if (only == "spice") {
        pattern = "BM_Spice.*|BM_Engine.*";
      } else {  // backend: the two per-vector backend paths
        pattern = "BM_VbsAdderVector|BM_SpiceAdderVector";
      }
      filter_arg = "--benchmark_filter=" + pattern;
      gbench_args.push_back(filter_arg.data());
    }
    int gargc = static_cast<int>(gbench_args.size());
    benchmark::Initialize(&gargc, gbench_args.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
