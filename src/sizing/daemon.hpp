#pragma once
// mtcmos_sizerd: sizing-as-a-service over a Unix-domain socket.
//
// ROADMAP item 1's service half: a long-lived daemon accepting sizing /
// rank / verify / campaign requests as newline-delimited JSON
// (util/socket.hpp) and streaming result rows back through the
// sizing::ResultSink spine, so library characterization traffic -- many
// overlapping requests over the same circuits -- gets cheap via
// cross-request dedup against one shared checkpoint store.
//
// A daemon that runs for days is first a robustness problem; the
// contract, in the order things can go wrong:
//
//  * Admission control: requests queue up to DaemonOptions::max_queue
//    deep while one executes.  A request past the bound is rejected
//    immediately with a coded `overloaded` error -- backpressure, not
//    OOM.  `status` and `drain` bypass the queue entirely (they answer
//    from the poll loop), so the daemon stays observable under load.
//
//  * Crash safety: an admitted request is journaled (requests.mtj,
//    util::Journal) strictly *before* its ack is sent, and marked done
//    strictly *after* its last row.  A daemon killed at any point
//    between -- mid-sweep, mid-stream, between journal and ack --
//    restarts, replays the journal, and re-runs every acked-but-not-done
//    request headless into the shared checkpoint store.  Re-sending the
//    same request then answers from the store: the streamed rows are
//    byte-identical to an uninterrupted run (checkpoint-resume
//    identity), which is what the kDaemon* faultinject sites
//    (accept / read / ack-lost / write) pin down in tests.
//
//  * Dedup: work identity is the content-derived checkpoint key (op,
//    backend, netlist fingerprint, W/L bits, transition bits), so
//    identical items across *different* requests replay from the store
//    without simulating.  Per-request hit/miss counts ride on the done
//    line; daemon-wide counters ride on `status`.
//
//  * Replay lane: a repeat of a `rank` request that already completed
//    (its `done:` record is "ok") is answered by a second thread from
//    the store alone, beside whatever the executor is computing, so a
//    store read never queues behind a simulation.  It takes the lane
//    only when the lane is free and its connection has nothing else in
//    flight -- one connection's answers keep their order -- and the
//    lane hands it to the executor queue if any of its items is missing
//    from the store.  Rows and done lines are byte-identical either way.
//
//  * Deadlines: a request's deadline_s (or the daemon default) is
//    enforced at the poll tick (poll_interval_ms) by raising the
//    request's private CancelToken -- the one way any sweep stops early
//    -- so in-flight items drain and the client gets a coded `deadline`
//    error.  The completed items are checkpointed (cancelled ones are
//    never persisted); the request stays journaled and finishes
//    headless, with no deadline, on the next restart.  So a `done` line
//    is always a complete answer, and no wall-clock verdict reaches a
//    journal.
//
//  * Graceful drain: SIGTERM/SIGINT (the global CancelToken) stops
//    admission (`draining` rejections), cancels the in-flight requests,
//    skips still-queued ones (both stay journaled for restart-resume),
//    flushes, and exits -- code 3 when work was interrupted, 0 when the
//    daemon was idle.  The `drain` op is the polite version: stop
//    admitting, *finish* the queue, exit 0.
//
// Sharding: the daemon inherits the supervisor (`--serve --shards N`) --
// rank requests fan their vectors across supervised worker processes
// whose journals merge into the shared store, and campaign requests pass
// the shard count straight to CampaignDriver::run.  A sharded daemon
// sends no request to the replay lane: the executor forks, and a child
// must not inherit a backend lock the lane holds.  Repeats queue on the
// executor instead.
//
// Threading: serve() runs the poll loop on the calling thread, one
// executor thread for request bodies, and the replay-lane thread (on a
// private one-thread pool).  The executor and the lane share a small LRU
// of warm evaluation contexts (an Evaluator plus exhaustive vectors), so
// a fresh W/L on a known circuit reuses its W/L-invariant baselines.  All are created after any fork of the
// daemon itself; the executor forks supervisor workers only via the
// established supervisor contract.

#include <cstddef>
#include <cstdint>
#include <string>

#include "sizing/eval_types.hpp"
#include "util/cancel.hpp"

namespace mtcmos::sizing {

struct DaemonOptions {
  std::string socket_path;  ///< REQUIRED: Unix-domain socket to listen on
  /// REQUIRED: state directory -- requests.mtj (request journal),
  /// store.mtj (shared checkpoint store), campaigns/<key>/ (campaign
  /// checkpoints), shards/ (supervisor worker journals).
  std::string state_dir;
  /// Requests queued behind the executing one before `overloaded`
  /// rejections start (>= 0; 0 = reject whenever one request is active).
  int max_queue = 8;
  /// Default per-request deadline [s] when a request names none; 0 = no
  /// deadline.  Checked at the poll tick; headless resumes run without.
  double default_deadline_s = 0.0;
  int shards = 1;  ///< supervisor worker processes for rank/campaign (>1 enables)
  /// Poll-loop tick [ms]: socket poll timeout, deadline check period,
  /// and global-cancel forwarding latency.
  int poll_interval_ms = 50;
  /// Cancellation source the poll loop watches for drain; nullptr = the
  /// process-global token (what SIGTERM raises).  Tests pass their own.
  util::CancelToken* cancel_token = nullptr;
};

struct DaemonStats {
  std::size_t accepted = 0;      ///< admitted (journaled + acked) requests
  std::size_t rejected = 0;      ///< overloaded + draining + bad-request rejections
  std::size_t completed = 0;     ///< requests that ran to a done line
  std::size_t failed = 0;        ///< requests that ended in a coded failure
  std::size_t resumed = 0;       ///< journaled requests re-run headless at startup
  std::size_t dedup_hits = 0;    ///< items answered from the checkpoint store
  std::size_t dedup_misses = 0;  ///< items simulated and newly journaled
  bool interrupted = false;      ///< drain cancelled or skipped admitted work
};

/// One daemon instance.  Construct with options, then serve() until a
/// drain: it owns the socket, both journals, and the executor and
/// replay-lane threads for the duration of the call.
class Daemon {
 public:
  explicit Daemon(DaemonOptions options) : options_(std::move(options)) {}

  /// Bind the socket, replay the request journal (resuming unfinished
  /// requests), and serve until a `drain` request completes the queue or
  /// the cancel token is raised.  Returns the run's stats; throws
  /// std::runtime_error on setup errors (socket path, state dir).
  DaemonStats serve();

  /// Exit code for the established CLI contract: 3 when the drain
  /// interrupted admitted work (rerun --serve to resume it), else 0.
  static int exit_code(const DaemonStats& stats) { return stats.interrupted ? 3 : 0; }

 private:
  DaemonOptions options_;
};

/// The row-stream encoders: append one complete protocol line, '\n'
/// included, for streamed row `index` of request `req` to `out`.  A
/// `row` line carries a rank measurement, a `value` line any scalar
/// measurement; doubles print via util::append_json_double.  Exposed so
/// tests can pin the wire bytes.
void append_row_line(std::string& out, const std::string& req, std::size_t index,
                     const VectorDelay& row);
void append_value_line(std::string& out, const std::string& req, std::size_t index,
                       double value);

}  // namespace mtcmos::sizing
