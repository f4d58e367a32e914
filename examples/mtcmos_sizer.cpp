// mtcmos_sizer -- command-line sleep-transistor sizing tool.
//
// Reads a gate netlist in the .mtn text format (see src/netlist/io.hpp)
// or generates a built-in benchmark circuit, explores its input-vector
// space through the selected evaluation backend, and reports degradation
// sweeps and the sleep W/L meeting a target.  Optionally re-measures the
// binding vector on the transistor-level engine (--verify) and exports
// the expanded circuit as a SPICE deck for external cross-checking.
//
// Usage:
//   mtcmos_sizer <netlist.mtn | builtin:adderN|multN|wallaceN> [--target PCT]
//                [--vectors N] [--seed S] [--sweep WL1,WL2,...]
//                [--backend vbs|spice] [--verify] [--screen N]
//                [--export-deck out.sp] [--export-vcd out.vcd] [--wl X]
//                [--checkpoint DIR] [--resume] [--shards N]
//
// The netlist must declare `input` nets and at least one `output` net;
// a builtin is generated instead, from the table the daemon and campaigns
// read (sizing/campaign.cpp): adderN is the paper's ripple-carry adder
// (N = 1..4; Section 6.2 uses N = 3), multN and wallaceN its N x N
// carry-save and Wallace-tree multipliers (N = 2..4).  With <= 8 inputs
// (sizing::kMaxExhaustiveInputs) the vector space is
// enumerated exhaustively; larger blocks are sampled (N transitions) plus
// greedy worst-vector refinement.  --backend picks the evaluation engine:
// the fast switch-level simulator (vbs, default) or the transistor-level
// MNA engine (spice; orders of magnitude slower per vector -- pair it
// with --screen/--vectors).  --verify re-measures the binding vector of
// the recommended sizing on the transistor-level backend and reports the
// SPICE-measured degradation next to the fast engine's prediction (the
// paper's size-fast/verify-accurate methodology).  --screen thins the
// vector set to the N transitions with the largest logic-level
// simultaneous-discharge weight before simulating; --export-vcd dumps the
// waveforms of the binding vector at the recommended sizing for GTKWave
// inspection.
//
// Crash safety: --checkpoint DIR journals every completed measurement to
// DIR/journal.mtj as it lands.  A run killed at any point (Ctrl-C, OOM,
// power loss) is re-invoked with the same arguments plus --resume: items
// already journaled replay without simulating and the final results are
// bit-identical to an uninterrupted run.  SIGINT/SIGTERM drain in-flight
// items, flush the journal, print the partial sweep health, and exit
// with code 3 (0 = success, 1 = error, 2 = usage).
//
// Process-level fault tolerance: --shards N (requires --checkpoint) runs
// each degradation-sweep row across N supervised worker *processes*,
// each journaling to a private shard journal that is merged back into
// DIR/journal.mtj by content key; the row's in-process pass then replays
// it and runs whatever the workers left.  Dead workers are restarted with
// exponential backoff, hung workers are detected by heartbeat and
// killed, and items that repeatedly kill workers are quarantined as
// poisoned-item failures instead of looping.  Results are bit-identical
// to a single-process run (quarantined items excepted).  Exit code 4 =
// the run completed but quarantined items were recorded.  See
// docs/robustness.md section 8 for the full contract.
//
// Characterization campaigns: --campaign spec.json (requires
// --checkpoint DIR; the positional netlist argument is replaced by the
// spec's "circuit" field) crosses operating corners x a W/L grid x the
// vector set into one streamed run: rows spill to DIR/campaign.mtc as
// they are measured, chunk completions journal to DIR/campaign.mtj, and
// the final table -- written to --table PATH (default DIR/table.json,
// "-" = stdout) -- is aggregated by a single scan, so peak RAM stays
// bounded regardless of row count.  --resume and --shards N compose
// with it; fresh, resumed, and sharded campaigns of the same spec emit
// byte-identical tables.  Exit codes keep their meanings: 3 =
// interrupted (re-run with --resume to continue), 4 = completed but
// some chunks were quarantined as poisoned.  See
// docs/architecture.md "Result pipeline".

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "core/vbs.hpp"
#include "models/sleep_transistor.hpp"
#include "netlist/expand.hpp"
#include "sizing/campaign.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/daemon.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "sizing/supervisor.hpp"
#include "spice/deck.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "waveform/vcd.hpp"

namespace {

using namespace mtcmos;

int usage() {
  // The exit-code lines below are the tool's contract; docs/robustness.md
  // section 7 carries the same table with the full semantics -- keep the
  // two in sync (tests/daemon_test.cpp pins the daemon rows).
  std::cerr
      << "usage: mtcmos_sizer <netlist.mtn | builtin:adderN|multN|wallaceN> [--target PCT]\n"
         "                    [--vectors N] [--seed S] [--sweep WL1,WL2,...]\n"
         "                    [--backend vbs|spice] [--verify] [--screen N]\n"
         "                    [--export-deck out.sp] [--export-vcd out.vcd] [--wl X]\n"
         "                    [--checkpoint DIR] [--resume] [--shards N]\n"
         "       mtcmos_sizer --campaign spec.json --checkpoint DIR [--table PATH]\n"
         "                    [--resume] [--shards N]\n"
         "       mtcmos_sizer --serve --socket PATH --checkpoint DIR [--shards N]\n"
         "                    [--max-queue N] [--deadline S]\n"
         "       mtcmos_sizer --request JSON --socket PATH\n"
         "exit codes (full table: docs/robustness.md section 7):\n"
         "  0  success; daemon: drained with no admitted work interrupted\n"
         "  1  error -- either completed-with-failures (every sweep item failed;\n"
         "     the histogram classifies them) or an \"orchestration error:\"\n"
         "     (infrastructure death); client: coded request failure\n"
         "  2  usage error\n"
         "  3  interrupted (SIGINT/SIGTERM) -- partial results journaled under\n"
         "     --checkpoint, resumable; daemon: drain cancelled admitted work\n"
         "     (resumes at the next --serve); client: cancelled/deadline response\n"
         "  4  completed with quarantined (poisoned) items or campaign chunks\n";
  return 2;
}

/// Partial-completion report: sweep health plus the failure-code
/// histogram, so the user sees what was cancelled vs what genuinely
/// failed before deciding to resume.
void print_sweep_health(const mtcmos::SweepReport& report) {
  if (report.total == 0) return;
  std::cout << "\nSweep health: " << report.summary() << "\n";
  const auto histogram = report.code_histogram();
  if (!histogram.empty()) {
    std::cout << "  failure codes:";
    for (const auto& [code, count] : histogram) {
      std::cout << " " << mtcmos::to_string(code) << "=" << count;
    }
    std::cout << "\n";
  }
}

/// The whole of `text` as a number for `flag`, finite and > 0 when
/// `positive`; anything else -- a malformed, out-of-range or (when
/// `positive`) non-positive value -- is a usage error (exit 2), raised
/// before any checkpoint is opened or bound.
template <typename T>
T parse_number(const std::string& flag, const std::string& text, bool positive = false) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end) {
    if (!positive || (value > 0 && std::isfinite(static_cast<double>(value)))) return value;
    std::cerr << "value '" << text << "' for " << flag << " must be finite and positive\n";
  } else {
    std::cerr << (ec == std::errc::result_out_of_range ? "out-of-range" : "malformed")
              << " value '" << text << "' for " << flag << "\n";
  }
  std::exit(2);
}

/// A comma-separated list of W/Ls, each finite and positive.
std::vector<double> parse_list(const std::string& flag, const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(parse_number<double>(flag, item, true));
  return out;
}

/// Write `what` to the file `path` in place through `write` -- no temp
/// file and no rename, so devices and symlinked targets keep working --
/// and check the stream after the last byte: a path that cannot be opened
/// or a full disk throws "cannot write <what> to <path>" (exit 1).
void write_checked(const std::string& path, const std::string& what,
                   const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path, std::ios::binary);
  if (os) write(os);
  os.close();
  if (!os) throw std::runtime_error("cannot write " + what + " to " + path);
}

/// --campaign mode: stream a corner-crossed characterization campaign
/// through the columnar result pipeline and emit the aggregated table.
int run_campaign(const std::string& spec_path, const std::string& dir, bool resume, int shards,
                 const std::string& table_path, mtcmos::SweepReport& report) {
  const sizing::CampaignSpec spec = sizing::CampaignSpec::parse_file(spec_path);
  sizing::CampaignDriver driver(spec, dir, resume);
  std::cout << "Campaign: " << spec.circuit << " on " << spec.backend << ", "
            << spec.corners.size() << " corners x " << spec.wl_grid.size() << " W/L x "
            << driver.n_vectors() << " vectors = "
            << spec.corners.size() * spec.wl_grid.size() * driver.n_vectors() << " rows in "
            << driver.n_chunks() << " chunks (chunk " << spec.chunk << ")\n";
  if (resume) {
    std::cout << "Resuming from " << driver.journal_path() << ": " << driver.chunks_done()
              << " chunks already journaled\n";
  }

  const sizing::CampaignStats stats = driver.run(shards, &report);
  std::cout << "Chunks: " << stats.chunks_replayed << " replayed, " << stats.chunks_run
            << " run (" << stats.rows_emitted << " rows spilled)";
  if (stats.chunks_poisoned > 0) std::cout << ", " << stats.chunks_poisoned << " poisoned";
  std::cout << " of " << stats.chunks_total << "\n";
  if (shards > 1) {
    std::cout << "Supervision: " << stats.supervisor.workers_spawned << " workers, "
              << stats.supervisor.restarts << " restarts, " << stats.supervisor.stall_kills
              << " stall kills, " << stats.supervisor.quarantined << " quarantined, "
              << stats.supervisor.abandoned << " abandoned\n";
  }
  print_sweep_health(report);

  if (!stats.complete) {
    std::cerr << (stats.cancelled ? "interrupted" : "incomplete") << ": " << driver.chunks_done()
              << "/" << driver.n_chunks()
              << " chunks journaled; rerun with --resume to continue\n";
    return 3;
  }

  // A full disk or a closed pipe shows only as a failed stream: check it
  // after the last byte is handed over, so a lost table is exit 1.
  if (table_path == "-") {
    driver.write_table(std::cout);
    if (!std::cout.flush()) throw std::runtime_error("cannot write the table to stdout");
  } else {
    write_checked(table_path, "the table", [&](std::ostream& os) { driver.write_table(os); });
    std::cout << "Wrote characterization table to " << table_path << "\n";
  }
  if (stats.chunks_poisoned > 0) {
    std::cerr << "completed with quarantined (poisoned) chunks -- their rows are absent from "
                 "the table; see docs/robustness.md section 8\n";
    return 4;
  }
  return 0;
}

/// --serve mode: run mtcmos_sizerd on a Unix-domain socket (see
/// sizing/daemon.hpp for the protocol and the robustness contract).
int run_serve(const std::string& socket_path, const std::string& state_dir, int shards,
              int max_queue, double default_deadline_s) {
  sizing::DaemonOptions dopt;
  dopt.socket_path = socket_path;
  dopt.state_dir = state_dir;
  dopt.shards = shards;
  dopt.max_queue = max_queue;
  dopt.default_deadline_s = default_deadline_s;
  std::cout << "mtcmos_sizerd: serving on " << socket_path << " (state " << state_dir
            << ", max queue " << max_queue << ", shards " << shards << ")\n"
            << std::flush;
  try {
    sizing::Daemon daemon(dopt);
    const sizing::DaemonStats stats = daemon.serve();
    std::cout << "mtcmos_sizerd: drained -- " << stats.accepted << " accepted, "
              << stats.rejected << " rejected, " << stats.completed << " completed, "
              << stats.failed << " failed, " << stats.resumed << " resumed, dedup "
              << stats.dedup_hits << " hits / " << stats.dedup_misses << " misses\n";
    if (stats.interrupted) {
      std::cerr << "interrupted: admitted requests were cancelled mid-drain; they are "
                   "journaled and resume at the next --serve\n";
    }
    return sizing::Daemon::exit_code(stats);
  } catch (const std::exception& e) {
    std::cerr << "orchestration error: " << e.what() << "\n";
    return 1;
  }
}

/// --request mode: submit one JSON request line to a running daemon and
/// stream every response line for it to stdout.  Exit codes follow the
/// table in usage(): 0 done/status/drain-ack, 1 coded failure, 3
/// cancelled/deadline.
int run_client(const std::string& socket_path, const std::string& request_line) {
  try {
    util::LineChannel chan(util::unix_connect(socket_path));
    if (!chan.send(request_line)) {
      std::cerr << "orchestration error: daemon hung up before the request was sent\n";
      return 1;
    }
    std::string line;
    while (chan.recv(line, /*timeout_ms=*/-1)) {
      std::cout << line << "\n" << std::flush;
      const util::JsonPtr doc = util::parse_json(line);
      const std::string type = doc->string_or("type", "");
      if (type == "status" || type == "done") return 0;
      if (type == "ack" && doc->string_or("op", "") == "drain") return 0;
      if (type == "error") {
        const std::string code = doc->string_or("code", "");
        return (code == "cancelled" || code == "deadline") ? 3 : 1;
      }
    }
    std::cerr << "orchestration error: connection closed before a terminal response (daemon "
                 "killed? re-send the request after it restarts)\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "orchestration error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mtcmos::units;
  if (argc < 2) return usage();
  std::string path;
  double target = 5.0;
  int n_vectors = 200;
  std::uint64_t seed = 1;
  std::vector<double> sweep = {5, 10, 20, 40, 80, 160};
  std::string deck_path;
  std::string vcd_path;
  std::string backend_name = "vbs";
  bool verify = false;
  double deck_wl = 10.0;
  int screen_keep = 0;
  std::string checkpoint_dir;
  bool resume = false;
  int shards = 1;
  std::string campaign_path;
  std::string table_path;
  bool serve = false;
  std::string socket_path;
  std::string request_json;
  int max_queue = 8;
  double serve_deadline_s = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--target") {
      target = parse_number<double>(arg, next(), true);
    } else if (arg == "--vectors") {
      n_vectors = parse_number<int>(arg, next(), true);
    } else if (arg == "--seed") {
      seed = parse_number<std::uint64_t>(arg, next());
    } else if (arg == "--sweep") {
      sweep = parse_list(arg, next());
    } else if (arg == "--export-deck") {
      deck_path = next();
    } else if (arg == "--export-vcd") {
      vcd_path = next();
    } else if (arg == "--screen") {
      screen_keep = parse_number<int>(arg, next());
    } else if (arg == "--wl") {
      deck_wl = parse_number<double>(arg, next(), true);
    } else if (arg == "--backend") {
      backend_name = next();
      if (backend_name != "vbs" && backend_name != "spice") {
        std::cerr << "unknown backend '" << backend_name << "' (expected vbs or spice)\n";
        return usage();
      }
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--checkpoint") {
      checkpoint_dir = next();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--shards") {
      shards = parse_number<int>(arg, next());
    } else if (arg == "--campaign") {
      campaign_path = next();
    } else if (arg == "--table") {
      table_path = next();
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--request") {
      request_json = next();
    } else if (arg == "--max-queue") {
      max_queue = parse_number<int>(arg, next());
    } else if (arg == "--deadline") {
      serve_deadline_s = parse_number<double>(arg, next());
    } else if (arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return usage();
    } else {
      path = arg;
    }
  }
  if (serve || !request_json.empty()) {
    if (serve && !request_json.empty()) {
      std::cerr << "--serve and --request are mutually exclusive\n";
      return usage();
    }
    if (socket_path.empty()) {
      std::cerr << "--serve/--request require --socket PATH\n";
      return usage();
    }
    if (!path.empty() || !campaign_path.empty()) {
      std::cerr << "--serve/--request take no netlist or campaign arguments (requests name "
                   "their circuits)\n";
      return usage();
    }
    if (!request_json.empty()) return run_client(socket_path, request_json);
    if (checkpoint_dir.empty()) {
      std::cerr << "--serve requires --checkpoint DIR (the request journal and shared "
                   "checkpoint store live there)\n";
      return usage();
    }
    return run_serve(socket_path, checkpoint_dir, shards, max_queue, serve_deadline_s);
  }
  if (!campaign_path.empty()) {
    if (!path.empty()) {
      std::cerr << "--campaign takes its circuit from the spec's \"circuit\" field; drop the "
                   "positional netlist argument\n";
      return usage();
    }
    if (checkpoint_dir.empty()) {
      std::cerr << "--campaign requires --checkpoint DIR (the campaign journal, columnar row "
                   "store, and default table all live there)\n";
      return usage();
    }
  } else {
    if (path.empty()) return usage();
    if (!table_path.empty()) {
      std::cerr << "--table only applies to --campaign mode\n";
      return usage();
    }
  }
  if (resume && checkpoint_dir.empty()) {
    std::cerr << "--resume requires --checkpoint DIR\n";
    return usage();
  }
  if (shards > 1 && checkpoint_dir.empty()) {
    std::cerr << "--shards requires --checkpoint DIR (shard journals merge into it)\n";
    return usage();
  }

  // Ctrl-C / SIGTERM raise the process-global cancellation token that
  // every sweep below polls: in-flight items drain, the journal flushes,
  // and we exit 3 with partial results instead of dying mid-write.
  util::install_cancel_signal_handlers();

  // Session shared by every sweep: one report aggregates the whole run's
  // item outcomes, and the checkpoint (when armed) journals them.
  SweepReport report;
  sizing::Checkpoint checkpoint;
  sizing::EvalSession session;
  session.report = &report;

  if (!campaign_path.empty()) {
    try {
      const std::string table_out =
          table_path.empty() ? (std::filesystem::path(checkpoint_dir) / "table.json").string()
                             : table_path;
      return run_campaign(campaign_path, checkpoint_dir, resume, shards, table_out, report);
    } catch (const NumericalError& e) {
      print_sweep_health(report);
      if (e.info().code == FailureCode::kCancelled ||
          util::CancelToken::global().requested()) {
        std::cerr << "interrupted: " << e.what()
                  << "\ncompleted chunks are journaled; rerun with --resume to continue\n";
        return 3;
      }
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    } catch (const std::exception& e) {
      print_sweep_health(report);
      std::cerr << "orchestration error: " << e.what() << "\n";
      return 1;
    }
  }

  try {
    // Every sweep below runs through this one circuit and backend.
    const sizing::Evaluator evaluator(sizing::build_campaign_circuit(path, nullptr), backend_name);
    const netlist::Netlist& nl = evaluator.circuit().nl;
    const sizing::EvalBackend& eval = evaluator.backend();
    std::cout << "Netlist: " << nl.gate_count() << " gates, " << nl.transistor_count()
              << " transistors, " << nl.inputs().size() << " inputs, technology "
              << nl.tech().name << "\n";

    if (!checkpoint_dir.empty()) {
      std::filesystem::create_directories(checkpoint_dir);
      const std::string journal_path =
          (std::filesystem::path(checkpoint_dir) / "journal.mtj").string();
      try {
        checkpoint.open(journal_path);
      } catch (const NumericalError& e) {
        // A journal this build refuses to resume (an older item format)
        // is an orchestration problem, not a failed sweep.
        std::cerr << "orchestration error: " << e.what() << "\n";
        return 1;
      }
      if (checkpoint.journal().size() > 0 && !resume) {
        std::cerr << "error: " << journal_path << " already holds "
                  << checkpoint.journal().size()
                  << " outcomes; pass --resume to continue that run or use a fresh "
                     "--checkpoint directory\n";
        return 2;
      }
      // Guard the journal against a resume with different arguments:
      // mixing two runs would merge unrelated measurements.
      checkpoint.bind_meta("circuit", path);
      checkpoint.bind_meta("backend", backend_name);
      checkpoint.bind_meta("target", std::to_string(target));
      checkpoint.bind_meta("seed", std::to_string(seed));
      checkpoint.bind_meta("vectors", std::to_string(n_vectors));
      checkpoint.bind_meta("screen", std::to_string(screen_keep));
      session.checkpoint = &checkpoint;
      if (resume) {
        std::cout << "Resuming from " << journal_path << ": "
                  << checkpoint.journal().replayed_records()
                  << " journaled records replay without simulating";
        if (checkpoint.journal().truncated_bytes() > 0) {
          std::cout << " (dropped " << checkpoint.journal().truncated_bytes()
                    << " torn trailing bytes)";
        }
        std::cout << "\n";
      } else {
        std::cout << "Checkpointing to " << journal_path << "\n";
      }
    }

    // Vector set.
    const int n_in = static_cast<int>(nl.inputs().size());
    Rng rng(seed);
    std::vector<sizing::VectorPair> vectors;
    if (n_in <= sizing::kMaxExhaustiveInputs) {
      vectors = sizing::all_vector_pairs(n_in);
      std::cout << "Exhaustive vector space: " << vectors.size() << " transitions\n";
    } else {
      vectors = sizing::sampled_vector_pairs(n_in, n_vectors, rng);
      std::cout << "Sampled vector space: " << vectors.size() << " transitions (seed " << seed
                << ")\n";
    }

    if (screen_keep > 0 && static_cast<std::size_t>(screen_keep) < vectors.size()) {
      vectors = sizing::screen_vectors(nl, std::move(vectors),
                                       static_cast<std::size_t>(screen_keep), session);
      std::cout << "Screened to the " << vectors.size()
                << " transitions with the largest simultaneous-discharge weight\n";
    }

    if (backend_name == "spice") {
      std::cout << "Backend: transistor-level MNA engine (expect ~1000x the vbs runtime)\n";
    }

    // Degradation sweep through the session, so the table rows are
    // parallel, fault-isolated, checkpointed, and cancellable like every
    // other sweep (rank_vectors returns worst-first).  With --shards the
    // row's items first run in supervised worker processes whose journals
    // merge into the session checkpoint, which the row's pass replays.
    Table table({"sleep W/L", "R_eff [kOhm]", "worst degr [%]"});
    for (const double wl : sweep) {
      if (shards > 1) {
        sizing::SupervisorOptions sopt;
        sopt.shards = shards;
        sopt.dir = (std::filesystem::path(checkpoint_dir) / "shards").string();
        const sizing::SupervisorStats stats =
            sizing::sharded_rank_vectors(eval, vectors, wl, sopt, checkpoint);
        std::cout << "W/L " << wl << " supervision: " << stats.workers_spawned << " workers, "
                  << stats.restarts << " restarts, " << stats.stall_kills << " stall kills, "
                  << stats.quarantined << " quarantined, " << stats.abandoned << " abandoned\n";
      }
      const auto ranked = sizing::rank_vectors(eval, vectors, wl, session);
      const double worst = ranked.empty() ? -1.0 : ranked.front().degradation_pct;
      table.add_row({Table::num(wl, 4),
                     Table::num(SleepTransistor(nl.tech(), wl).reff() / 1e3, 4),
                     Table::num(worst, 3)});
    }
    table.print(std::cout);

    // Refined worst vector (sampled spaces benefit from the greedy pass).
    if (n_in > sizing::kMaxExhaustiveInputs) {
      const auto worst = sizing::search_worst_vector(eval, sweep.front(),
                                                     std::max(1, n_vectors / 2), rng, session);
      vectors.push_back(worst.pair);
      std::cout << "Greedy-refined worst vector adds " << worst.degradation_pct
                << "% degradation at W/L = " << sweep.front() << "\n";
    }

    const auto sized = sizing::size_for_degradation(eval, vectors, target, {}, session);
    std::cout << "\nRecommended sleep W/L for <= " << target << "% degradation: " << sized.wl
              << " (achieves " << sized.degradation_pct << "%)\n";
    const SleepTransistor st(nl.tech(), sized.wl);
    std::cout << "  R_eff " << st.reff() << " Ohm, width " << st.width() / um << " um, area "
              << st.area() / (um * um) << " um^2, sleep-cycle energy " << st.cycle_energy() / 1e-15
              << " fJ\n";

    if (verify) {
      // Paper Section 6 methodology: size with the fast engine, re-measure
      // the binding vector on the transistor-level reference.
      const sizing::SpiceBackend reference(nl, evaluator.circuit().outputs);
      const auto vr = sizing::verify_sizing(eval, reference, sized, target, session);
      std::cout << "\nCross-backend verification (" << eval.name() << " -> "
                << reference.name() << ") of the binding vector at W/L = " << vr.wl << ":\n";
      if (!vr.ok) {
        std::cout << "  verification failed: " << vr.failure.message() << "\n";
      } else {
        std::cout << "  " << eval.name() << ": " << Table::num(vr.fast_delay / ns, 4)
                  << " ns vs " << Table::num(vr.fast_baseline_delay / ns, 4)
                  << " ns baseline -> " << Table::num(vr.fast_degradation_pct, 3)
                  << "% degradation\n"
                  << "  " << reference.name() << ": "
                  << Table::num(vr.reference_delay / ns, 4) << " ns vs "
                  << Table::num(vr.reference_baseline_delay / ns, 4) << " ns baseline -> "
                  << Table::num(vr.reference_degradation_pct, 3) << "% degradation\n"
                  << "  reference-minus-fast delta: " << Table::num(vr.delta_pct, 3)
                  << " pts; target " << target << "% met on " << reference.name() << ": "
                  << (vr.reference_meets_target ? "yes" : "NO") << "\n";
      }
    }

    if (!vcd_path.empty()) {
      core::VbsOptions vopt;
      vopt.sleep_resistance = st.reff();
      const core::VbsSimulator sim(nl, vopt);
      auto res = sim.run(sized.binding_vector.v0, sized.binding_vector.v1);
      res.outputs.channel("vgnd") = res.virtual_ground;
      write_checked(vcd_path, "the VCD", [&](std::ostream& os) { write_vcd(os, res.outputs); });
      std::cout << "Wrote VCD of the binding vector at W/L=" << sized.wl << " to " << vcd_path
                << "\n";
    }

    if (!deck_path.empty()) {
      netlist::ExpandOptions opt;
      opt.sleep_wl = deck_wl;
      const auto zeros = std::vector<bool>(nl.inputs().size(), false);
      const auto ex = netlist::to_spice(nl, opt, zeros, zeros);
      spice::DeckOptions dopt;
      dopt.title = "mtcmos_sizer export of " + path + " at W/L=" + std::to_string(deck_wl);
      write_checked(deck_path, "the SPICE deck",
                    [&](std::ostream& os) { spice::write_spice_deck(os, ex.circuit, dopt); });
      std::cout << "Wrote SPICE deck to " << deck_path << "\n";
    }
  } catch (const NumericalError& e) {
    if (e.info().code == FailureCode::kCancelled ||
        util::CancelToken::global().requested()) {
      print_sweep_health(report);
      std::cerr << "interrupted"
                << (util::last_cancel_signal() != 0
                        ? " by signal " + std::to_string(util::last_cancel_signal())
                        : "")
                << ": " << e.what() << "\n";
      if (session.checkpoint != nullptr) {
        std::cerr << "completed items are journaled; rerun with --resume to continue\n";
      }
      return 3;
    }
    print_sweep_health(report);
    if (report.total > 0 && report.failed == report.total) {
      // Completed-with-failures, not an orchestration error: the sweep
      // machinery worked, every item's numerics failed (see histogram).
      std::cerr << "every sweep item failed; the histogram above classifies them "
                   "(completed-with-failures exit, not an orchestration error)\n";
    }
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Infrastructure death (I/O, fork, bad configuration) -- the sweep
    // itself did not run to completion.  Still print whatever item
    // health accumulated so the two exit-1 flavors are distinguishable.
    print_sweep_health(report);
    std::cerr << "orchestration error: " << e.what() << "\n";
    return 1;
  }
  if (util::CancelToken::global().requested()) {
    // Cancelled late enough that every sweep still returned: the results
    // above are partial (unstarted items were skipped as kCancelled).
    print_sweep_health(report);
    std::cerr << "interrupted; results above are partial";
    if (session.checkpoint != nullptr) {
      std::cerr << " -- completed items are journaled; rerun with --resume to continue";
    }
    std::cerr << "\n";
    return 3;
  }
  print_sweep_health(report);
  if (report.total > 0 && report.failed == report.total) {
    std::cerr << "every sweep item failed; the histogram above classifies them "
                 "(completed-with-failures exit, not an orchestration error)\n";
    return 1;
  }
  for (const auto& [index, info] : report.failures) {
    (void)index;
    if (info.code == FailureCode::kPoisonedItem) {
      std::cerr << "completed with quarantined (poisoned) items -- each killed a worker "
                << "process repeatedly and was excluded; see docs/robustness.md section 8\n";
      return 4;
    }
  }
  return 0;
}
