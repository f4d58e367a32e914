#pragma once
// Fault-tolerant sharded sweep supervision.
//
// A characterization campaign at library scale outlives any single
// process: solvers crash on pathological operating points, the OOM
// killer reaps workers, and one poisoned vector must never cost more
// than itself.  supervise() runs a sweep's item range across worker
// *processes* -- crash isolation the thread pool cannot give -- and
// merges their journals into the caller's checkpoint.  It only fills
// that checkpoint: every result then comes from the caller's ordinary
// in-process pass over it, the same pass that resumes an interrupted
// run, so a sharded run is a resumed run.
//
//   Only the items the caller's checkpoint lacks are planned:
//   plan_shards() splits them into contiguous near-equal shards; one
//   worker process per shard journals outcomes to a private
//   shard<k>.mtj checkpoint under SupervisorOptions::dir, using the
//   same content-derived item keys as a single-process sweep.
//
//   A worker's first life runs its whole assignment as one call of the
//   item body, so a sweep shard is one batched pass.  A restarted life,
//   and any life while a kWorker* fault plan is armed (those plans
//   address per-item scopes), calls the body once per item, in order.
//
//   Workers heartbeat "H" on a pipe every kHeartbeatIntervalS from a
//   side thread; the shard journal, not a line, says an item finished.
//   The parent judges liveness from the pipe alone: a worker silent
//   past kLivenessTimeoutS is SIGKILLed; a dead worker (crash, signal,
//   stall-kill) is restarted on its shard's unjournaled items with
//   exponential backoff (kBackoffInitialS doubling up to kBackoffMaxS)
//   under a per-slot budget of kMaxRestarts restarts.
//
//   Blame and quarantine come from the shard journal alone: when a life
//   that ran one item per call dies, the first item of its assignment
//   the journal lacks gets a strike; a one-call life's death blames
//   nobody, and its restart runs item by item.  An item with
//   kPoisonStrikes strikes is quarantined -- excluded from every later
//   assignment and stamped into the merged journal as a kPoisonedItem
//   failure (site "sizing::supervisor") -- so a deterministic
//   worker-killer shows up as one classified failure instead of an
//   infinite restart loop.
//
//   When a slot exhausts its restart budget, its pending items with a
//   strike are quarantined and the rest are left to the caller's
//   in-process pass (SupervisorStats::abandoned): the parent never runs
//   an item that killed a worker, and every caller finishes with the
//   same pass that resumes an interrupted run.
//
//   Cancellation (SIGINT/SIGTERM raising the session's CancelToken)
//   SIGTERMs every worker, waits kDrainTimeoutS for graceful exits
//   (workers drain like any cancelled sweep), then SIGKILLs stragglers.
//
//   supervise() finally merges every shard journal into the caller's
//   checkpoint by key (util::merge_journal_file), flushes it, and deletes
//   the shard files.  Because keys are content-derived and workers are
//   deterministic, duplicated records agree, and the caller's pass over
//   the merged checkpoint returns results and a SweepReport
//   bit-identical to a single-process run.
//
//   Given a columnar merge destination, each worker also spills result
//   rows into a private columnar store shard<k>.mtc next to its journal,
//   in blocks of the destination's rows_per_block (append-reopened
//   across restarts, so a restart keeps every block an earlier life
//   flushed), and supervise() merges the shard stores into the
//   destination -- first block per tag wins -- and syncs it *before* it
//   merges the shard journals.  The item body must then (1) flush at most
//   one block per tag, so rows_per_block must be >= the most rows one
//   item emits, and (2) sync the block *before* journaling the item's
//   completion, so a journaled item always has its rows on disk and a
//   re-run duplicate is bitwise identical.
//
// Fork-safety: workers are forked directly (no exec) and must not touch
// threads or locks created before the fork -- they run their sweep on a
// 1-thread ThreadPool (inline, spawns nothing) and open their journal
// after the fork.  Spawn only while the parent's pools are quiescent.
// Inside a worker, SIGTERM (and a vanished parent) raises the global
// CancelToken, which item bodies must poll.  Worker deaths are
// injectable via the faultinject kWorker* sites with generation
// addressing (a worker stamps each item's prior strike count as the
// process generation), so restart-vs-quarantine ladders are
// deterministic in tests.

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sizing/checkpoint.hpp"
#include "sizing/eval_types.hpp"
#include "util/cancel.hpp"
#include "util/columnar.hpp"

namespace mtcmos::sizing {

/// Restarts per worker slot before its pending items go to the caller.
constexpr int kMaxRestarts = 3;
/// Graceful-exit window [s] after SIGTERM before stragglers are SIGKILLed.
constexpr double kDrainTimeoutS = 5.0;
constexpr double kHeartbeatIntervalS = 0.05;
/// A worker with no heartbeat for this long [s] is declared hung and
/// SIGKILLed (then restarted like any other death).
constexpr double kLivenessTimeoutS = 5.0;
constexpr double kBackoffInitialS = 0.05;  ///< doubles per restart, capped below
constexpr double kBackoffMaxS = 1.0;
constexpr int kPoisonStrikes = 2;  ///< strikes before an item is quarantined

struct SupervisorOptions {
  int shards = 2;   ///< worker process count (>= 1)
  std::string dir;  ///< REQUIRED: directory for the shard files
  util::CancelToken* cancel_token = nullptr;  ///< nullptr = global token
};

struct SupervisorStats {
  int workers_spawned = 0;  ///< total forks (initial + restarts)
  int restarts = 0;         ///< respawns after a worker death
  int stall_kills = 0;      ///< workers SIGKILLed for missed heartbeats
  int strikes = 0;          ///< worker deaths blamed on an item (see the header)
  std::size_t quarantined = 0;  ///< items stamped kPoisonedItem
  std::size_t abandoned = 0;    ///< items left to the caller's pass
  bool cancelled = false;       ///< the run was cancelled while supervising
};

/// Contiguous near-equal [begin, end) shards covering [0, n); at most
/// `shards` entries, empty shards dropped (n < shards yields n shards).
std::vector<std::pair<std::size_t, std::size_t>> plan_shards(std::size_t n_items, int shards);

/// Evaluates `items` (ascending indices) inside a worker process,
/// journaling each one's outcome into `ckpt` under `key_of(idx)`; it
/// runs on a 1-thread pool, polls the global CancelToken and must be
/// deterministic.  `columnar` is the worker's shard store, or
/// nullptr without a columnar destination; the body tags and syncs its
/// blocks itself (see the header for the contract).
using ItemFn = std::function<void(std::span<const std::size_t> items, Checkpoint& ckpt,
                                  util::ColumnarWriter* columnar)>;
/// The record the body journals for item `idx` -- a typed item for
/// sweeps, a text key for campaign chunks -- used for planning, blame
/// and quarantine stamps.
using KeyFn = std::function<Checkpoint::Key(std::size_t idx)>;

/// Supervise `options.shards` worker processes over the items of
/// [0, n_items) that `merged` lacks (none lacking: no worker spawns) to
/// completion (or cancellation), then merge every shard journal into
/// `merged`, stamp quarantined items as kPoisonedItem records and delete
/// the shard files; with a non-null `columnar` (open for append),
/// workers get shard stores that are merged into it (and synced) first,
/// so a store merge that throws leaves `merged` without their records.
/// Items no worker completed stay absent from `merged`
/// (SupervisorStats::abandoned) for the caller's pass to run.
/// Throws std::invalid_argument on an unusable configuration (empty dir,
/// shards < 1, an unarmed `merged`, a columnar destination that is not
/// open) and std::runtime_error on fork/pipe failure.
SupervisorStats supervise(const SupervisorOptions& options, std::size_t n_items,
                          const ItemFn& run, const KeyFn& key_of, Checkpoint& merged,
                          util::ColumnarWriter* columnar = nullptr);

/// supervise() over the items of rank_vectors(backend, vectors, wl):
/// fills the armed `merged` with their records.  The caller's
/// rank_vectors over `merged` then replays them -- bit-identical to a
/// single-process run, except that quarantined items appear as
/// kPoisonedItem failures -- and runs the abandoned ones.
SupervisorStats sharded_rank_vectors(const EvalBackend& backend,
                                     const std::vector<VectorPair>& vectors, double wl,
                                     const SupervisorOptions& options, Checkpoint& merged);

}  // namespace mtcmos::sizing
