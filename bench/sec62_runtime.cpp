// SEC62 -- runtime comparison (paper Section 6.2).
//
// The paper: exhaustively simulating all 2^6 x 2^6 = 4096 input vector
// pairs of the 3-bit ripple adder took 4.78 CPU-hours in SPICE on a Sparc
// 5, and 13.5 s in the variable-breakpoint switch-level simulator.  This
// bench runs all 4096 vectors through our switch-level backend (timed),
// times a deterministic sample of the same vectors through the
// transistor-level backend, extrapolates the full-space SPICE cost, and
// prints the speedup factor.  Absolute times reflect 2020s hardware; the
// orders-of-magnitude *ratio* is the reproduced result.
//
// Both engines run through the identical code path: one timed_sweep()
// over the abstract EvalBackend, so the measured ratio is engine cost,
// not harness differences.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "circuits/generators.hpp"
#include "models/technology.hpp"
#include "sizing/backend.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/sizing.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using namespace mtcmos;
using Clock = std::chrono::steady_clock;

struct SweepRun {
  std::vector<double> delays;
  double seconds = 0.0;
};

// Time delay_at_wl over `pairs` through the backend interface.  The
// per-W/L engine is warmed by prepare_wl first, so the timing measures
// steady-state per-vector cost, not one-time construction.  With a
// checkpoint armed, every completed delay is journaled (keyed by
// backend + W/L + transition) and journaled delays replay without
// simulating -- a killed run resumed with the same arguments reproduces
// the identical checksum.  The timed region includes the journal
// traffic, so comparing runs with and without --checkpoint measures its
// overhead directly.
SweepRun timed_sweep(const sizing::EvalBackend& backend,
                     const std::vector<sizing::VectorPair>& pairs, double wl,
                     util::ThreadPool& pool, sizing::Checkpoint* ckpt) {
  backend.prepare_wl(wl);
  const bool journaled = ckpt != nullptr && ckpt->armed();
  const sizing::ItemKeys keys =
      sizing::PassKeys(ckpt, nullptr, "sec62-delay", backend, wl, pairs).items();
  SweepRun out;
  const auto t0 = Clock::now();
  out.delays = pool.parallel_map(pairs.size(), [&](std::size_t i) {
    if (!journaled) return backend.delay_at_wl(pairs[i], wl);
    Outcome<double> cached;
    if (ckpt->lookup(keys[i], cached) && cached.ok()) return *cached.value;
    const double d = backend.delay_at_wl(pairs[i], wl);
    sizing::Checkpoint::Stage stage;
    ckpt->record(keys[i], Outcome<double>::success(d), stage);
    ckpt->commit(stage);
    return d;
  });
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

// Time the same sweep through the backend's batch interface: `batch`
// vectors per EvalBackend::delay_at_wl_batch call, chunks fanned over the
// pool.  On the switch-level backend this is the SoA batch kernel
// (core/vbs_batch.hpp); results are bit-identical to timed_sweep's.
// Failed lanes report -1 like a non-toggling vector would.
SweepRun timed_batch_sweep(const sizing::EvalBackend& backend,
                           const std::vector<sizing::VectorPair>& pairs, double wl,
                           std::size_t batch, util::ThreadPool& pool) {
  backend.prepare_wl(wl);
  SweepRun out;
  out.delays.assign(pairs.size(), -1.0);
  const std::size_t nchunks = (pairs.size() + batch - 1) / batch;
  const auto t0 = Clock::now();
  pool.parallel_for(nchunks, [&](std::size_t c) {
    const std::size_t begin = c * batch;
    const std::size_t end = std::min(begin + batch, pairs.size());
    std::vector<const sizing::VectorPair*> vps(end - begin);
    for (std::size_t i = begin; i < end; ++i) vps[i - begin] = &pairs[i];
    std::vector<Outcome<double>> res(end - begin);
    backend.delay_at_wl_batch(vps.data(), vps.size(), wl, res.data());
    for (std::size_t i = begin; i < end; ++i) {
      if (res[i - begin].ok()) out.delays[i] = *res[i - begin].value;
    }
  });
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mtcmos::units;
  bool quick = false;
  int threads = util::ThreadPool::default_thread_count();
  std::size_t batch = 256;
  std::string checkpoint_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      if (threads < 1) threads = 1;
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_dir = argv[++i];
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::cerr << "usage: sec62_runtime [--quick] [--threads N] [--checkpoint DIR] "
                   "[--batch N]\n"
                   "  --batch N   chunk size for the batched VBS leg (default 256; "
                   "1 skips it)\n";
      return 2;
    }
  }
  util::ThreadPool pool(threads);
  bench::print_header("SEC62", "Exhaustive 3-bit adder vector sweep: runtime comparison");

  sizing::Checkpoint checkpoint;
  if (!checkpoint_dir.empty()) {
    std::filesystem::create_directories(checkpoint_dir);
    const std::string journal_path =
        (std::filesystem::path(checkpoint_dir) / "sec62.mtj").string();
    checkpoint.open(journal_path);
    std::cout << "Checkpoint: " << journal_path << " ("
              << checkpoint.journal().replayed_records()
              << " journaled records replay; timings below include journal traffic)\n";
  }

  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  const double wl = 10.0;
  const auto pairs = sizing::all_vector_pairs(6);

  // --- Switch-level backend: the full 4096-vector space, fanned out over
  // the thread pool.  The backend shares one immutable simulator across
  // all workers (thread-local workspaces inside); delays land in
  // index-addressed slots, so the checksum reduction below is bit-
  // identical to the serial sweep.
  const sizing::VbsBackend vbs(adder.netlist, outs);
  const SweepRun vbs_run = timed_sweep(vbs, pairs, wl, pool, &checkpoint);
  double vbs_checksum = 0.0;
  std::size_t switched = 0;
  for (const double d : vbs_run.delays) {
    if (d > 0.0) {
      vbs_checksum += d;
      ++switched;
    }
  }

  // --- Batched switch-level leg: the same 4096 vectors through the SoA
  // batch kernel, `batch` lanes per call.  No journal traffic here --
  // this leg times the raw kernel, and its results are checked
  // bit-for-bit against the scalar leg's.
  SweepRun vbs_batch_run;
  bool batch_identical = true;
  if (batch >= 2) {
    vbs_batch_run = timed_batch_sweep(vbs, pairs, wl, batch, pool);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (vbs_batch_run.delays[i] != vbs_run.delays[i]) batch_identical = false;
    }
  }

  // --- Transistor-level backend: deterministic sample, extrapolated.
  // Exactly `sample` evenly spaced vectors.  Same timed_sweep; the
  // backend leases each worker its own engine from a per-W/L pool, so the
  // sample scales with the thread pool like the switch-level sweep does
  // (and the engine itself runs with device bypass + Jacobian reuse, the
  // backend defaults).  The reported per-vector figure is therefore the
  // deployed cost of the reference path, not a serialized worst case.
  const std::size_t sample = quick ? 8 : 64;
  sizing::SpiceBackendOptions sopt;
  sopt.tstop = 12.0 * ns;
  sopt.dt = 2.0 * ps;
  const sizing::SpiceBackend spice(adder.netlist, outs, sopt);
  std::vector<sizing::VectorPair> sampled;
  for (std::size_t s = 0; s < sample && s < pairs.size(); ++s) {
    sampled.push_back(pairs[s * pairs.size() / sample]);
  }
  const SweepRun spice_run = timed_sweep(spice, sampled, wl, pool, &checkpoint);
  const std::size_t measured = sampled.size();
  const double spice_total_est = spice_run.seconds / static_cast<double>(measured) *
                                 static_cast<double>(pairs.size());

  Table table({"engine", "vectors", "wall time [s]", "per vector [ms]"});
  table.add_row({"switch-level (VBS, " + std::to_string(pool.thread_count()) + " threads)",
                 std::to_string(pairs.size()), Table::num(vbs_run.seconds, 4),
                 Table::num(vbs_run.seconds / pairs.size() * 1e3, 3)});
  if (batch >= 2) {
    table.add_row({"switch-level batch (B=" + std::to_string(batch) + ")",
                   std::to_string(pairs.size()), Table::num(vbs_batch_run.seconds, 4),
                   Table::num(vbs_batch_run.seconds / pairs.size() * 1e3, 3)});
  }
  table.add_row({"transistor-level (sampled)", std::to_string(measured),
                 Table::num(spice_run.seconds, 4),
                 Table::num(spice_run.seconds / measured * 1e3, 4)});
  table.add_row({"transistor-level (4096, extrapolated)", std::to_string(pairs.size()),
                 Table::num(spice_total_est, 4),
                 Table::num(spice_total_est / pairs.size() * 1e3, 4)});
  bench::print_table(table, "sec62");

  if (batch >= 2) {
    std::cout << "VBS batch kernel (batch=" << batch << "): scalar "
              << Table::num(vbs_run.seconds / pairs.size() * 1e6, 3) << " us/vector, batch "
              << Table::num(vbs_batch_run.seconds / pairs.size() * 1e6, 3)
              << " us/vector, speedup "
              << Table::num(vbs_run.seconds / vbs_batch_run.seconds, 3)
              << "x; results bit-identical: " << (batch_identical ? "yes" : "NO") << "\n";
  }
  std::cout << "Speedup (VBS vs transistor-level, full space): "
            << Table::num(spice_total_est / vbs_run.seconds, 4) << "x\n"
            << "Paper: 13.5 s vs 4.78 h = ~1275x on a Sparc 5.\n"
            << "(" << switched << " of 4096 transitions toggle an output; VBS checksum "
            << Table::num(vbs_checksum / ns, 6) << " ns)\n";
  const auto estats = spice.engine_stats();
  const double visits = static_cast<double>(estats.device_evals + estats.bypass_hits);
  std::cout << "Engine hot path: " << estats.device_evals << " device evals, "
            << estats.bypass_hits << " bypass hits ("
            << Table::num(visits > 0.0 ? 100.0 * estats.bypass_hits / visits : 0.0, 3)
            << "%), " << estats.factorizations << " factorizations / " << estats.solves
            << " solves\n";
  return 0;
}
