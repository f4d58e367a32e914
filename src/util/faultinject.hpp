#pragma once
// Deterministic, site-addressable fault injection.
//
// Solver recovery paths (the ladder in spice/recovery.hpp, the per-item
// retry in sizing sweeps) are only trustworthy if they can be *driven*
// from tests: "fail vector 37's first solve, succeed on the retry".  This
// harness plants named injection sites inside the solvers; a test arms a
// plan against a (site, scope) address and the next matching hits throw a
// NumericalError with the site's natural FailureCode (kNewtonDiverged for
// the Newton loop, kSingularMatrix for the LU pivot, kInjected
// elsewhere).
//
// Addressing: `scope` is a thread-local integer that sweep drivers set to
// the item index before running the item (ScopedScope).  A plan with
// scope kAnyScope matches every scope -- deterministic only for serial
// runs, since which thread's hit lands first is scheduling-dependent;
// plans pinned to a concrete scope are deterministic for any thread
// count, because hit counters are kept per plan and each scope is
// processed by exactly one sweep item.
//
// The harness is compiled in always.  Disarmed cost is one relaxed
// atomic load per site visit (the plan table is only consulted when at
// least one plan has been armed), so production sweeps pay nothing
// measurable.

#include <atomic>
#include <cstdint>

#include "util/failure.hpp"

namespace mtcmos::faultinject {

/// Injection sites planted in the toolkit's solvers.
enum class Site : int {
  kSparseLuFactorize = 0,  ///< SparseLu::factorize numeric elimination
  kNewtonSolve,            ///< Engine::newton_solve entry
  kTransientStep,          ///< Engine::run_transient step acceptance
  kVbsRun,                 ///< VbsSimulator::run entry
  kVbsBreakpoint,          ///< VbsSimulator::run breakpoint loop
  kSweepItem,              ///< sizing sweep per-item runner
  kJournalAppend,          ///< util::Journal::append, and Checkpoint staging of each record
  kColumnarAppend,         ///< util::ColumnarWriter::append; scope = the row's index in its block
  // Process-level sites consumed by sharded-sweep workers via fired()
  // (they kill the process instead of throwing; see supervisor.hpp).
  kWorkerAbort,            ///< worker calls abort() before running the item
  kWorkerKill,             ///< worker raises SIGKILL before running the item
  kWorkerStall,            ///< worker stops heartbeating and hangs
  kWorkerTornTail,         ///< worker writes a torn journal tail, then SIGKILL
  // Daemon lifecycle sites consumed by mtcmos_sizerd via fired() (the
  // daemon raises SIGKILL on a hit; see sizing/daemon.hpp).  Scope is the
  // connection index for accept, the request sequence number for
  // read/ack-lost, and the streamed row index for write; the drain-window
  // site is visited unscoped.
  kDaemonAccept,           ///< daemon dies right after accepting a connection
  kDaemonRead,             ///< daemon dies after reading a request, before journaling it
  kDaemonAckLost,          ///< daemon dies after journaling a request, before the ack
  kDaemonWrite,            ///< daemon dies before streaming a result row
  /// The daemon executor raises SIGTERM at itself between its pre-run
  /// drain check and publishing the request it is about to run, then
  /// parks until the drain begins (needs the default, signal-driven drain
  /// token).  Lands a drain in that window on every run.
  kDaemonDrainWindow,
};

const char* to_string(Site site);

/// Matches every scope (see the header comment for determinism caveats).
inline constexpr std::int64_t kAnyScope = -1;

/// Matches every process generation (see set_generation below).
inline constexpr int kAnyGeneration = -1;

/// Fail the next `fail_hits` visits of `site` whose thread-local scope
/// matches `scope` (kAnyScope = all scopes).  `fail_hits` < 0 installs a
/// hard fault that fires on every matching visit.  `code` defaults to the
/// site's natural failure code.  Plans stack: the first armed, matching,
/// non-exhausted plan fires.
void arm(Site site, std::int64_t scope, int fail_hits);
void arm(Site site, std::int64_t scope, int fail_hits, FailureCode code);

/// Like arm(), but the plan additionally only matches while the
/// process-wide generation equals `generation` (kAnyGeneration = any).
///
/// Rationale: a supervisor worker inherits the parent's plan table at
/// fork, and a *restarted* worker inherits it again -- so a plain
/// "kill at item 7" plan would re-fire forever and every kill plan
/// would look like a poisoned item.  Workers stamp set_generation()
/// with the item's prior strike count before running it; a plan pinned
/// to generation 0 then fires on the first attempt only, and a plan
/// armed for generations 0 and 1 models a deterministic worker-killer
/// that must be quarantined.
void arm_generation(Site site, std::int64_t scope, int generation, int fail_hits);

/// Process-wide generation stamp consulted by generation-pinned plans.
void set_generation(int generation);
int generation();

/// Remove every plan and reset the fired-injection counter.
void disarm_all();

/// True when at least one non-exhausted plan targets `site` (any scope).
/// Batch sweep paths consult this to stand down to the scalar per-item
/// path while a test is addressing a site they would visit with the
/// wrong (batch-wide) scope, so scoped plans keep firing against their
/// item index.  Disarmed cost is one relaxed atomic load.
bool armed(Site site);

/// Total injections fired since the last disarm_all() (test diagnostics).
std::size_t injected_count();

/// Non-throwing injection point for process-level sites: consumes one
/// matching hit and returns true if a plan fired.  The caller is expected
/// to die (abort, SIGKILL, hang) rather than unwind, so this never
/// throws.  Disarmed cost is one relaxed atomic load.
bool fired(Site site);

/// Thread-local scope the sweep drivers stamp with the item index.
std::int64_t current_scope();
void set_current_scope(std::int64_t scope);

/// RAII scope stamp for one sweep item.
class ScopedScope {
 public:
  explicit ScopedScope(std::int64_t scope) : prev_(current_scope()) {
    set_current_scope(scope);
  }
  ~ScopedScope() { set_current_scope(prev_); }
  ScopedScope(const ScopedScope&) = delete;
  ScopedScope& operator=(const ScopedScope&) = delete;

 private:
  std::int64_t prev_;
};

namespace detail {
extern std::atomic<int> g_armed_plans;
/// Consults the plan table; on a match consumes one hit and reports the
/// failure code to throw with.
bool should_fail_slow(Site site, FailureCode& code);
[[noreturn]] void throw_injected(Site site, const char* site_name, FailureCode code);
}  // namespace detail

/// The injection point: throws NumericalError when an armed plan matches.
/// `site_name` becomes the FailureInfo site (the caller's qualified name).
inline void check(Site site, const char* site_name) {
  if (detail::g_armed_plans.load(std::memory_order_relaxed) == 0) return;
  FailureCode code = FailureCode::kInjected;
  if (detail::should_fail_slow(site, code)) detail::throw_injected(site, site_name, code);
}

}  // namespace mtcmos::faultinject
