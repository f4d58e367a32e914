#pragma once
// Corner-crossed characterization campaigns over the streaming result
// pipeline.
//
// The paper sizes one circuit at one process corner.  A library flow
// asks the same question as a *campaign*: every operating corner (Vdd,
// threshold shifts, temperature) crossed with every sleep W/L of a grid
// crossed with the full vector set, producing one machine-readable
// characterization table.  At 10^6+ rows that only works on top of the
// streaming result path (sizing/result_sink.hpp): rows spill into a
// columnar block store (util/columnar.hpp) as they are measured and the
// table is aggregated by a single scan, so peak RAM is bounded by one
// block regardless of row count.
//
// Execution model: the cross product is cut into *chunks* (one corner,
// one W/L, a contiguous vector range).  A chunk is the unit of
// everything --
//   * spill: a chunk's rows form exactly one columnar block, tagged with
//     the chunk id, flushed only when the chunk completes (an
//     interrupted chunk discards its buffered rows, so a partial block
//     can never shadow the complete re-run under first-block-wins
//     merge);
//   * checkpoint: one journal record per completed chunk ("chunk:<id>",
//     written strictly *after* the block is synced), so the journal stays
//     item-count-independent and a resume re-runs only incomplete
//     chunks.  In-process, the remaining chunks run as one pool job
//     (sizing::rank_vectors_passes) so no core idles at a chunk
//     boundary, yet blocks and records still commit in chunk order and
//     a run stops at the first chunk it interrupts;
//   * sharding: with shards > 1 the remaining chunks first run across
//     supervised worker processes (sizing/supervisor.hpp) whose shard
//     columnar stores, then their shard journals, merge back by
//     identity; the in-process pass then finishes what the workers left,
//     as a resume.
// Chunks are deterministic, so fresh, killed-and-resumed, and sharded
// campaigns all converge to the same store contents -- and because the
// table is built from order-independent aggregates (counts, integer
// histograms, max with a lexicographic key tie-break) printed with
// round-trip-exact doubles (util/json.hpp), the emitted table is
// byte-identical across all of them.
//
// The spec is a small JSON document:
//
//   {
//     "circuit": "builtin:mult4",          // builtin:adderN|multN|wallaceN or file.mtn
//     "backend": "vbs",                    // or "spice"
//     "target_pct": 5.0,
//     "wl_grid": [20, 50, 100, 200],       // strictly ascending
//     "corners": [
//       { "name": "nominal" },
//       { "name": "slow", "vdd_scale": 0.9, "vt_low_shift": 0.03,
//         "vt_high_shift": 0.06, "kp_scale": 0.95, "temp": 398.15 }
//     ],
//     "vectors": { "mode": "exhaustive" }, // or {"mode":"sampled","count":N,"seed":S}
//     "chunk": 2048
//   }
//
// Corners are *deterministic* technology transforms (shift thresholds,
// scale Vdd/kp, set the junction temperature of the leakage model) --
// the fixed-corner counterpart of the Monte-Carlo sampling in
// sizing/variation.hpp.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/technology.hpp"
#include "netlist/io.hpp"
#include "netlist/netlist.hpp"
#include "sizing/backend.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/eval_types.hpp"
#include "sizing/supervisor.hpp"
#include "util/cancel.hpp"
#include "util/columnar.hpp"
#include "util/failure.hpp"
#include "util/thread_pool.hpp"

namespace mtcmos::sizing {

/// One operating corner as a deterministic Technology transform.
struct CampaignCorner {
  std::string name;
  double vdd_scale = 1.0;      ///< Vdd multiplier (> 0)
  double vt_low_shift = 0.0;   ///< added to both low-Vt thresholds [V]
  double vt_high_shift = 0.0;  ///< added to both high-Vt thresholds [V]
  double kp_scale = 1.0;       ///< transconductance multiplier (> 0)
  double temp = 0.0;           ///< junction temperature [K]; 0 keeps nominal
};

/// Apply `corner` to the nominal process.  Threshold clamps and the
/// Vdd-headroom guard mirror the Monte-Carlo sampler
/// (variation.cpp): vt_low >= 0.01 V, vt_high >= 0.05 V, kp scale
/// >= 0.5, and the corner must keep Vdd > Vt,high + 0.05 V or
/// std::invalid_argument is thrown.
Technology corner_technology(const Technology& nominal, const CampaignCorner& corner);

struct CampaignSpec {
  std::string circuit;          ///< builtin:... or a .mtn path
  std::string backend = "vbs";  ///< "vbs" or "spice"
  double target_pct = 5.0;
  std::vector<double> wl_grid;  ///< strictly ascending, > 0
  std::vector<CampaignCorner> corners;

  enum class VectorMode { kExhaustive, kSampled };
  VectorMode vector_mode = VectorMode::kExhaustive;
  int sample_count = 0;      ///< sampled mode: transitions drawn
  std::uint64_t seed = 1;    ///< sampled mode: RNG seed
  std::size_t chunk = 2048;  ///< vector rows per work unit (and per block)

  /// Parse and validate a spec document.  Unknown keys are rejected (a
  /// typo must not silently become a default).  Throws
  /// std::runtime_error with a line:column position on malformed JSON
  /// and std::invalid_argument on semantic errors.
  static CampaignSpec parse(const std::string& json_text);
  static CampaignSpec parse_file(const std::string& path);

  /// Deterministic one-line serialization: the run-configuration guard
  /// bound into the campaign journal (Checkpoint::bind_meta), so a
  /// resume with an edited spec is rejected instead of mixing runs.
  std::string canonical() const;
};

/// One circuit instance bound to a (possibly corner-shifted) process.
struct CornerCircuit {
  netlist::Netlist nl;
  std::vector<std::string> outputs;
};

/// Instantiate the spec's circuit on `tech` (nullptr = the circuit's
/// nominal process).  Builtins are re-generated; a .mtn file is parsed
/// once and re-bound to the corner process preserving net ids, input
/// order, gate order, and device widths, so every corner shares vector
/// and key semantics with the nominal circuit.
CornerCircuit build_campaign_circuit(const std::string& circuit, const Technology* tech);

/// build_campaign_circuit's .mtn path over a netlist the caller already
/// parsed from the file `circuit` (the daemon parses the bytes it keyed
/// its warm evaluation context on).
CornerCircuit campaign_circuit_from(const std::string& circuit, netlist::ParsedNetlist parsed,
                                    const Technology* tech);

/// Nominal process of the spec's circuit (builtins pick their paper
/// process; a .mtn file supplies its own).  Throws std::invalid_argument
/// for an unknown builtin or one outside its N range.
Technology campaign_nominal_tech(const std::string& circuit);

/// A circuit and the backend that evaluates it -- the one place a backend
/// name becomes an EvalBackend, shared by the CLI, the daemon's warm
/// contexts and campaign corners.  Neither copyable nor movable: the
/// backend refers into the circuit.  Thread-safe like its backend.
class Evaluator {
 public:
  /// `backend` is "vbs" or "spice"; anything else throws std::invalid_argument.
  Evaluator(CornerCircuit circuit, const std::string& backend);
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  const CornerCircuit& circuit() const { return circuit_; }
  const EvalBackend& backend() const { return *backend_; }

 private:
  CornerCircuit circuit_;
  std::unique_ptr<EvalBackend> backend_;  ///< over circuit_
};

struct CampaignStats {
  std::size_t chunks_total = 0;
  std::size_t chunks_replayed = 0;  ///< journaled before this run() call
  std::size_t chunks_run = 0;       ///< completed by this run() call
  std::size_t chunks_poisoned = 0;  ///< quarantined by the supervisor
  std::size_t rows_emitted = 0;     ///< rows spilled by this run() call
  bool complete = false;            ///< every chunk journaled
  bool cancelled = false;
  SupervisorStats supervisor;  ///< meaningful when run(shards > 1)
};

/// Orchestrates one campaign under a checkpoint directory:
/// DIR/campaign.mtj journals chunk completions, DIR/campaign.mtc holds
/// the spilled rows, DIR/shards/ hosts supervised workers.  Construction
/// opens (or resumes) both files and binds the canonical spec and the
/// circuit's netlist fingerprint into the journal; run() executes the
/// remaining chunks; write_table() streams the aggregated
/// characterization table once the campaign is complete.
class CampaignDriver {
 public:
  /// Throws std::invalid_argument when `resume` is false but the journal
  /// already holds records (two runs must never silently mix), and the
  /// usual coded kInvalidArgument error when a resume presents a
  /// different spec or a .mtn circuit whose netlist was edited.  A
  /// journal that predates the netlist record resumes and is bound then.
  CampaignDriver(CampaignSpec spec, std::string dir, bool resume);

  std::size_t n_vectors() const { return vectors_.size(); }
  std::size_t n_chunks() const { return n_chunks_; }
  std::size_t chunks_done() const;
  bool complete() const { return chunks_done() == n_chunks_; }
  const std::string& journal_path() const { return journal_path_; }
  const std::string& store_path() const { return store_path_; }
  Checkpoint& checkpoint() { return ckpt_; }

  /// Execute every not-yet-journaled chunk.  shards > 1 first supervises
  /// worker processes over them with the full restart/quarantine
  /// machinery.  The chunks still unjournaled then run in-process as one
  /// job on `pool` (nullptr = the global pool): each chunk is one pass of
  /// rank_vectors_passes, so chunk k + 1 computes while chunk k commits,
  /// and chunks still commit in order.  `report` (optional) accumulates
  /// per-item sweep health of the chunks the in-process pass committed or
  /// stopped at; `cancel` (nullptr = the process-global token) makes the
  /// campaign stop at the first chunk it interrupts.
  CampaignStats run(int shards = 1, SweepReport* report = nullptr,
                    util::CancelToken* cancel = nullptr, util::ThreadPool* pool = nullptr);

  /// Stream the characterization table as JSON: one scan of the columnar
  /// store builds per-(corner, W/L) aggregates -- row/switching/failure
  /// counts, worst degradation with its vector, an integer percent
  /// histogram, and the smallest grid W/L meeting target_pct -- then the
  /// document prints with round-trip-exact doubles.  Byte-identical
  /// across fresh, resumed, and sharded runs of the same spec.  Throws
  /// std::runtime_error when the campaign is not complete.
  void write_table(std::ostream& os);

 private:
  struct ChunkPlan {
    std::size_t corner = 0;
    std::size_t wl_idx = 0;
    std::size_t begin = 0;  ///< vector range [begin, end)
    std::size_t end = 0;
  };
  ChunkPlan plan(std::size_t chunk_id) const;
  static std::string chunk_key(std::size_t chunk_id);
  void run_chunks(const std::vector<std::size_t>& ids, Checkpoint& ckpt,
                  util::ColumnarWriter& store, SweepReport* report, util::CancelToken* cancel,
                  util::ThreadPool* pool);

  /// The evaluator of `corner`, built on first use.  Only the most recent
  /// corner is cached (chunks are corner-major, so a walk in chunk order
  /// builds each corner once); a chunk in flight holds its own reference,
  /// so a corner is freed once its last chunk is done with it.
  std::shared_ptr<const Evaluator> corner_evaluator(std::size_t corner);

  CampaignSpec spec_;
  std::string dir_;
  std::string journal_path_;
  std::string store_path_;
  Checkpoint ckpt_;
  util::ColumnarWriter store_;
  std::unique_ptr<const CornerCircuit> nominal_;  ///< the circuit bound into the journal
  std::vector<VectorPair> vectors_;
  std::size_t chunks_per_sweep_ = 0;
  std::size_t n_chunks_ = 0;
  std::mutex corner_mutex_;  ///< guards the two fields below
  std::size_t cached_corner_ = 0;
  std::shared_ptr<const Evaluator> corner_;
};

}  // namespace mtcmos::sizing
