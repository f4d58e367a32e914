#pragma once
// Session-scoped sweep entry points over EvalBackend.
//
// EvalSession collapses the run context -- thread pool, report sink,
// checkpoint, cancellation -- into one value, and each sweep below has
// exactly one implementation taking it.  Because they are written against
// EvalBackend, the same ranking / bisection / search code runs on the
// switch-level simulator (VbsBackend) or the transistor-level engine
// (SpiceBackend) unchanged.
//
// verify_sizing() is the paper's Section 6 methodology as a function:
// size with the fast backend, then re-measure the binding vector on the
// accurate backend and report the delta.

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"
#include "sizing/backend.hpp"
#include "sizing/eval_types.hpp"
#include "util/cancel.hpp"
#include "util/failure.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mtcmos::sizing {

class Checkpoint;   // sizing/checkpoint.hpp
class ResultSink;   // sizing/result_sink.hpp

/// Run context shared by every sweep call in a sizing session.
///
/// A default-constructed session runs on the global thread pool, discards
/// per-item outcomes, and arms no checkpoint; cancellation polls the
/// process-global token.  Every session isolates per-item
/// numerical failures under the kItemAttempts retry budget.
struct EvalSession {
  util::ThreadPool* pool = nullptr;  ///< nullptr = the process-global pool
  SweepReport* report = nullptr;  ///< nullptr = per-item outcomes discarded
  /// Crash-safe journal of per-item outcomes (sizing/checkpoint.hpp).
  /// When armed, every entry point records completed items and skips
  /// items whose deterministic key is already journaled, so an
  /// interrupted run resumed against the same journal merges
  /// bit-identically with an uninterrupted one.  nullptr disables.
  Checkpoint* checkpoint = nullptr;
  /// Cooperative cancellation.  nullptr polls the process-global token
  /// (what SIGINT/SIGTERM raise once util::install_cancel_signal_handlers
  /// ran), so Ctrl-C drains default sessions gracefully; tests pass their
  /// own token for isolation.  This token is the only way to stop a
  /// sweep early; the daemon enforces a request deadline by raising it
  /// at its poll tick.  Once raised, items not yet started fail with
  /// kCancelled (recorded in the report, never checkpointed), in-flight
  /// items drain, and the entry point returns its partial result instead
  /// of dying mid-write; a caller that raised the token treats that
  /// result as interrupted, not as an answer.
  util::CancelToken* cancel_token = nullptr;
  /// Streaming row sink (sizing/result_sink.hpp).  When set, every entry
  /// point emits each successfully measured row -- computed or replayed
  /// from the checkpoint alike -- into the sink in input order while the
  /// pass still computes, keyed by the item's content-derived checkpoint
  /// key.  The sink is called only from the thread that called the entry
  /// point, and the emission sequence is identical for any thread count.
  /// When a pass throws, the rows emitted before the throw are a prefix
  /// of that sequence.  nullptr disables (the materialized return values
  /// are unchanged either way: internally they are built from a
  /// MemorySink).
  ResultSink* sink = nullptr;
  /// Chunk size for the backend's batch fast path (EvalBackend::
  /// delay_*_batch, the SoA cohort kernel on VbsBackend).  0 = auto:
  /// chunks of 256 when the backend supports batching; 1 forces the
  /// scalar per-item path; any other value is used as the chunk size.
  /// Batched sweeps are bit-identical to scalar ones for any thread
  /// count: the kernel replays the scalar floating-point sequence,
  /// checkpoint keys and records are untouched (journaled items replay
  /// before batches form, so a resumed run batches only the remaining
  /// items), and per-item retries fall back to the scalar backend.  The
  /// batch path stands down automatically while a fault-injection plan
  /// targets a VBS site (those plans address per-item scopes).
  std::size_t batch = 0;

  util::ThreadPool& pool_ref() const { return util::pool_or_global(pool); }
  util::CancelToken& cancel_ref() const {
    return cancel_token != nullptr ? *cancel_token : util::CancelToken::global();
  }
  /// Raise this session's cancellation token (thread-safe; callable from
  /// a signal-watching thread or another worker while a sweep runs).
  void cancel() const { cancel_ref().request(); }
};

/// W/L search space for size_for_degradation.  Validated on entry:
/// bounds must be finite with 0 < wl_min < wl_max and wl_tol > 0, or the
/// call throws a kInvalidArgument-coded NumericalError instead of
/// sweeping a degenerate interval.
struct SizingBounds {
  double wl_min = 1.0;
  double wl_max = 4000.0;
  double wl_tol = 0.5;
};

/// Degradation-ranked report over a vector set at sizing `wl`.  Pairs
/// whose outputs never switch are dropped.  Sorted worst-first.  Items
/// that still fail after the kItemAttempts retry budget are dropped
/// from the ranking and recorded in the session report; surviving entries
/// are bit-identical to a no-fault serial run over the surviving subset,
/// for any thread count.
std::vector<VectorDelay> rank_vectors(const EvalBackend& backend,
                                      const std::vector<VectorPair>& vectors, double wl,
                                      const EvalSession& session = {});

/// Streaming rank_vectors: identical evaluation, but rows are emitted
/// into session.sink (required) instead of materialized, so memory stays
/// bounded by the sink for any vector-set size.  Every successfully
/// measured row is emitted -- including non-switching ones, which the
/// materializing overload filters from its return value -- and the
/// emission count is returned.  Throws std::invalid_argument when
/// session.sink is null.
std::size_t rank_vectors_stream(const EvalBackend& backend,
                                const std::vector<VectorPair>& vectors, double wl,
                                const EvalSession& session);

/// One pass of rank_vectors_passes: rank_vectors_stream over the pass's
/// transitions at `vectors` on `backend` at `wl`, rows into `sink`.
struct RankPass {
  const EvalBackend* backend = nullptr;
  const VectorPair* vectors = nullptr;  ///< the pass's transitions, referenced, not copied
  double wl = 0.0;
  ResultSink* sink = nullptr;     ///< required
  SweepReport* report = nullptr;  ///< nullptr = the session's report
};

/// The caller's side of rank_vectors_passes.
class RankPasses {
 public:
  virtual ~RankPasses() = default;
  /// Pass k's work.  Called once per pass, from the pool thread that
  /// starts the pass's first task (the calling thread for pass 0 and for
  /// an empty pass); what it points at must stay valid until close(k).
  virtual RankPass open(std::size_t k) = 0;
  /// Called from the calling thread, in pass order, once pass k's last
  /// row is emitted and its sink flushed; `rows` counts them.  Returning
  /// false stops the run: no later pass emits a row or closes.  A pass
  /// opened but never closed (the run stopped or threw first) is
  /// dropped.
  virtual bool close(std::size_t k, std::size_t rows) = 0;
};

/// rank_vectors_stream over an ordered list of passes -- pass k ranks
/// `sizes[k]` transitions -- run as one pool job, so pass k + 1 computes
/// while pass k finishes and no thread idles at a pass boundary.  Each
/// pass's rows come from the calling thread in input order, pass after
/// pass, exactly as running the passes one at a time would emit them;
/// a pass's keys exist only from its first task until it is closed, and
/// a chunk's Outcome slots only until the chunk is emitted.  An
/// exception from a sink or from close() stops emission there, like a
/// sink throw in rank_vectors_stream, skips every later pass's tasks not
/// yet started, and is rethrown.  Every pass's backend must agree on
/// supports_batch().  Returns the number of rows emitted.
std::size_t rank_vectors_passes(const std::vector<std::size_t>& sizes, RankPasses& passes,
                                const EvalSession& session);

/// Smallest W/L (within bounds, resolved to wl_tol) whose worst
/// degradation over `vectors` is <= target_pct.  Failed vectors are
/// skipped in each probe's worst-degradation reduction and recorded in
/// the session report (one entry per vector per probe).  Throws
/// NumericalError if even wl_max cannot meet the target, or if every
/// vector of a probe fails.
SizingResult size_for_degradation(const EvalBackend& backend,
                                  const std::vector<VectorPair>& vectors, double target_pct,
                                  const SizingBounds& bounds = {},
                                  const EvalSession& session = {});

/// Randomized worst-vector search: `samples` random pairs, then greedy
/// single-bit-flip refinement from the best one.  Returns the worst
/// VectorDelay found.  The sample pass scores candidates in parallel on
/// the session pool; the greedy refinement is inherently sequential and
/// runs serially.  Failed samples are skipped in the first-maximum
/// reduction and failed refinement candidates count as no-improvement
/// (sample items use their sample index in the report, refinement
/// candidates continue the numbering).
VectorDelay search_worst_vector(const EvalBackend& backend, double wl, int samples, Rng& rng,
                                const EvalSession& session = {});

/// Keep the `keep` candidates with the largest falling_discharge_weight
/// (logic-level screening; no backend involved).  Candidates whose weight
/// computation fails are excluded from the ranking and recorded in the
/// session report.
std::vector<VectorPair> screen_vectors(const netlist::Netlist& nl,
                                       std::vector<VectorPair> candidates, std::size_t keep,
                                       const EvalSession& session = {});

/// Cross-backend sign-off for one sizing result (paper Section 6.2:
/// size with the fast tool, verify with the accurate one).
struct VerifyResult {
  bool ok = false;      ///< all four re-measurements produced usable delays
  FailureInfo failure;  ///< first terminal failure when !ok
  double wl = 0.0;      ///< the verified sizing
  // Binding-vector re-measurements at `wl` on each backend.
  double fast_delay = -1.0;
  double fast_baseline_delay = -1.0;
  double fast_degradation_pct = -1.0;
  double reference_delay = -1.0;
  double reference_baseline_delay = -1.0;
  double reference_degradation_pct = -1.0;
  /// reference - fast, in degradation points: how optimistic the fast
  /// backend was on the vector that bound the sizing.
  double delta_pct = 0.0;
  /// Achieved degradation still within the sizing target on the
  /// reference backend (filled by the caller's target; see verify_sizing).
  bool reference_meets_target = false;
};

/// Re-measure `result.binding_vector` at `result.wl` on both backends and
/// report the fast-vs-reference delta.  `target_pct` (when > 0) also
/// checks the reference-measured degradation against the original sizing
/// target.  Measurement failures honor the kItemAttempts retry budget
/// and are recorded in the session report; a terminal failure yields
/// ok = false with the FailureInfo instead of throwing.
VerifyResult verify_sizing(const EvalBackend& fast, const EvalBackend& reference,
                           const SizingResult& result, double target_pct = 0.0,
                           const EvalSession& session = {});

}  // namespace mtcmos::sizing
