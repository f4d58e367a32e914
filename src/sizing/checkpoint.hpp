#pragma once
// Crash-safe checkpointing for sweep sessions.
//
// A Checkpoint wraps a util::Journal and gives the sweep entry points
// (sizing/session.hpp) a typed record store: per-item Outcomes keyed by
// a deterministic item identity -- netlist fingerprint + backend + sweep
// operation + W/L + vector transition -- plus bisection-interval state
// for size_for_degradation.  Because keys are content-derived (never
// "item 37 of this process"), an identical re-invocation of a sweep maps
// every already-completed item to its journaled outcome and skips the
// simulation: a run interrupted at any point and resumed produces
// results and a SweepReport bit-identical to an uninterrupted run.
// Doubles are stored as their exact 64-bit patterns, so replayed values
// round-trip without losing a single ulp.
//
// What is persisted: successes and genuine numerical failures.  Outcomes
// that only describe the *interruption itself* -- kCancelled, and
// kDeadlineExceeded raised by the session deadline or the watchdog --
// are deliberately not persisted, so resuming after a Ctrl-C re-runs the
// cancelled items instead of replaying the cancellation forever.
//
// Run-configuration guard: bind_meta() records named configuration
// strings (target, bounds, seed, ...) on first use and throws a coded
// kInvalidArgument NumericalError when a resume presents different
// values, so a journal can never silently mix two different runs.

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sizing/backend.hpp"
#include "sizing/eval_types.hpp"
#include "util/failure.hpp"
#include "util/journal.hpp"

namespace mtcmos::sizing {

/// Progress of a size_for_degradation bisection, journaled after every
/// probe so an interrupted sizing resumes knowing the live W/L interval
/// (diagnostics; the probe *outcomes* themselves replay from the item
/// records, which is what keeps the merged report bit-identical).
struct BisectState {
  int phase = 0;  ///< 1 = wl_max probed, 2 = wl_min probed, 3 = bisecting
  double lo = 0.0;
  double hi = 0.0;
  double hi_deg = 0.0;
  std::size_t hi_idx = 0;
  std::size_t probes = 0;  ///< completed probe sweeps
};

class Checkpoint {
 public:
  /// Caller-owned group of encoded item records awaiting commit().
  using Stage = std::vector<util::JournalRecord>;

  Checkpoint() = default;

  /// Open (creating or resuming) the journal at `path`.  Throws
  /// std::runtime_error on I/O failure.
  void open(const std::string& path, util::JournalOptions options = {});
  bool armed() const { return journal_.is_open(); }
  util::Journal& journal() { return journal_; }
  const util::Journal& journal() const { return journal_; }

  /// First call stores `value` under meta name `name`; later calls (and
  /// later runs resuming this journal) throw a kInvalidArgument-coded
  /// NumericalError if `value` differs from the stored one.
  void bind_meta(const std::string& name, const std::string& value);

  /// Typed item records.  lookup returns false when the key is absent
  /// (or the checkpoint is unarmed); record silently skips outcomes that
  /// describe the interruption rather than the item (see header).
  ///
  /// Group commit: the `stage` overloads encode the record into the
  /// caller's stage, and commit() writes the whole stage as one journal
  /// group (one write()).  Staged records are invisible to lookup until
  /// committed.  The kJournalAppend fault check runs at staging time,
  /// once per staged record, under the caller's fault-injection scope: a
  /// kill plan aimed at item N fires while item N is staged, and the
  /// uncommitted group is lost exactly as a crash would lose it.  The
  /// stage-less overloads stage and commit one record.
  bool lookup(const std::string& key, Outcome<double>& out) const;
  bool lookup(const std::string& key, Outcome<VectorDelay>& out) const;
  void record(const std::string& key, const Outcome<double>& outcome, Stage& stage) const;
  void record(const std::string& key, const Outcome<VectorDelay>& outcome, Stage& stage) const;
  void record(const std::string& key, const Outcome<double>& outcome);
  void record(const std::string& key, const Outcome<VectorDelay>& outcome);

  /// Stage a bare failure under `key` without an Outcome type: the
  /// encoded form is shared by both lookup() overloads, so any sweep
  /// replays it as that item's failure.  The supervisor uses this to
  /// stamp quarantined (kPoisonedItem) items into the merged journal.
  /// Honors should_persist like record().
  void record_failure(const std::string& key, const FailureInfo& info, Stage& stage) const;

  /// Write every staged record as one journal group, then clear `stage`
  /// (a no-op for an empty stage).
  void commit(Stage& stage);

  bool lookup_bisect(const std::string& key, BisectState& out) const;
  void record_bisect(const std::string& key, const BisectState& state);

  /// Whether a failed outcome belongs in the journal: interruption
  /// artifacts (kCancelled; session-deadline / watchdog
  /// kDeadlineExceeded) must be re-run on resume, not replayed.
  static bool should_persist(const FailureInfo& failure);

 private:
  util::Journal journal_;
};

/// FNV-1a fingerprint of the canonical .mtn serialization plus the
/// observed outputs: two sweeps share item records iff they evaluate the
/// same circuit through the same observation points.
std::uint64_t netlist_fingerprint(const netlist::Netlist& nl,
                                  const std::vector<std::string>& outputs);

/// Key prefix for one sweep operation: "<op>:<backend>:<fp>:<wl-bits>:".
/// Pass NaN-free wl; operations without a W/L dimension use
/// checkpoint_prefix_nowl.
std::string checkpoint_prefix(const char* op, const char* backend_name, std::uint64_t fingerprint,
                              double wl);
std::string checkpoint_prefix_nowl(const char* op, const char* backend_name,
                                   std::uint64_t fingerprint);
/// Item key: prefix + the v0/v1 bit strings of the transition.
std::string checkpoint_item_key(const std::string& prefix, const VectorPair& vp);

/// Identity of one size_for_degradation invocation: fingerprint +
/// backend + target + bounds + the full vector set.  Used to key the
/// bisection-state record and the run-configuration guard.
std::uint64_t sizing_args_hash(std::uint64_t fingerprint, const char* backend_name,
                               const std::vector<VectorPair>& vectors, double target_pct,
                               double wl_min, double wl_max, double wl_tol);

}  // namespace mtcmos::sizing
