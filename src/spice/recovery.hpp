#pragma once
// Solver recovery ladder for transient runs.
//
// A production sweep cannot afford to lose an item to one Newton
// divergence when the same run would converge with a more damped solver
// setup.  run_transient_recovered() retries a failed Engine::run_transient
// through an escalation sequence of "rungs" -- each rung re-runs the full
// transient with progressively more conservative settings:
//
//   1. backward-Euler integration (kills trapezoidal ringing)
//   2. + smaller initial time step
//   3. + raised engine gmin (tames near-singular operating points)
//   4. + relaxed reltol (accepts a looser, but classified, answer)
//
// Rungs are cumulative: rung k applies every adjustment of rungs < k.
// The attempt count is recorded in the returned Outcome so SweepReport's
// per-rung histogram shows exactly how hard each item had to fight.
//
// kDeadlineExceeded is terminal: a run that exhausted its step budget
// will not finish faster with a more damped integrator, so the ladder
// stops escalating instead of multiplying the wasted time.

#include <string>
#include <vector>

#include "spice/engine.hpp"
#include "util/cancel.hpp"
#include "util/failure.hpp"

namespace mtcmos::spice {

/// One escalation step.  Scales apply to the *base* options (rungs are
/// expressed absolutely, not relative to the previous rung).
struct RecoveryRung {
  std::string name;          ///< for reports/logging, e.g. "raised-gmin"
  bool backward_euler = true;
  double dt_scale = 1.0;     ///< multiplies TransientOptions::dt
  double gmin_scale = 1.0;   ///< multiplies the engine's baseline gmin
  double reltol_scale = 1.0; ///< multiplies TransientOptions::reltol
};

/// The default escalation sequence described in the header comment.
std::vector<RecoveryRung> default_recovery_rungs();

struct RecoveryPolicy {
  bool enabled = true;  ///< false = single attempt, failures classified as-is
  std::vector<RecoveryRung> rungs;  ///< empty + enabled => default ladder
  /// Per-attempt step budget copied into TransientOptions when the base
  /// options leave it unset (0).  See TransientOptions for semantics.
  std::size_t max_steps = 0;
  /// Cooperative cancellation, polled before every attempt: a raised
  /// token fails the run with kCancelled instead of starting (or
  /// escalating) a transient that nobody will read.  nullptr polls the
  /// process-global token, so Ctrl-C also short-circuits recovery
  /// ladders already in flight.  kCancelled is an interruption artifact:
  /// checkpoints never persist it, and a rerun re-attempts the item.
  const util::CancelToken* cancel = nullptr;

  /// Ladder disabled: one attempt, structured failure reporting only.
  static RecoveryPolicy off() {
    RecoveryPolicy p;
    p.enabled = false;
    return p;
  }
};

/// Run `engine.run_transient(base)` under `policy`.  Attempt 1 uses the
/// base options; attempt k >= 2 applies rung k-2.  The engine's gmin is
/// restored before returning regardless of outcome.  Returns the result
/// with the attempt count, or the final attempt's FailureInfo.
Outcome<TransientResult> run_transient_recovered(Engine& engine, const TransientOptions& base,
                                                 const RecoveryPolicy& policy = {});

}  // namespace mtcmos::spice
