#include "spice/recovery.hpp"

#include "util/error.hpp"

namespace mtcmos::spice {

namespace {

/// Restores the engine's baseline gmin on scope exit, so a failed ladder
/// never leaks a raised gmin into the caller's next run.
class GminGuard {
 public:
  explicit GminGuard(Engine& engine) : engine_(engine), original_(engine.gmin()) {}
  ~GminGuard() { engine_.set_gmin(original_); }
  GminGuard(const GminGuard&) = delete;
  GminGuard& operator=(const GminGuard&) = delete;

  double original() const { return original_; }

 private:
  Engine& engine_;
  double original_;
};

}  // namespace

std::vector<RecoveryRung> default_recovery_rungs() {
  return {
      {"backward-euler", true, 1.0, 1.0, 1.0},
      {"smaller-dt", true, 0.25, 1.0, 1.0},
      {"raised-gmin", true, 0.25, 100.0, 1.0},
      {"relaxed-reltol", true, 0.25, 100.0, 100.0},
  };
}

Outcome<TransientResult> run_transient_recovered(Engine& engine, const TransientOptions& base,
                                                 const RecoveryPolicy& policy) {
  const GminGuard gmin_guard(engine);

  TransientOptions options = base;
  if (options.max_steps == 0) options.max_steps = policy.max_steps;

  const std::vector<RecoveryRung> rungs =
      !policy.enabled ? std::vector<RecoveryRung>{}
                      : (policy.rungs.empty() ? default_recovery_rungs() : policy.rungs);
  const int max_attempts = 1 + static_cast<int>(rungs.size());

  const util::CancelToken& cancel =
      policy.cancel != nullptr ? *policy.cancel : util::CancelToken::global();

  FailureInfo last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (cancel.requested()) {
      // Report kCancelled even mid-ladder: a partial escalation is an
      // interruption artifact, not a verdict on the circuit, and must
      // not be persisted or replayed as one.
      last.code = FailureCode::kCancelled;
      last.site = "spice::run_transient_recovered";
      last.context = attempt == 1 ? "cancelled before the first attempt"
                                  : "cancelled before escalation attempt " +
                                        std::to_string(attempt);
      last.attempts = attempt;
      return Outcome<TransientResult>::fail(last);
    }
    TransientOptions attempt_options = options;
    engine.set_gmin(gmin_guard.original());
    if (attempt >= 2) {
      const RecoveryRung& rung = rungs[static_cast<std::size_t>(attempt - 2)];
      attempt_options.backward_euler = options.backward_euler || rung.backward_euler;
      attempt_options.dt = options.dt * rung.dt_scale;
      attempt_options.reltol = options.reltol * rung.reltol_scale;
      engine.set_gmin(gmin_guard.original() * rung.gmin_scale);
      // Escalation rungs run the plain engine: a failure under the
      // accelerations already fell back to full Newton per solve, so a
      // whole-run failure means the circuit is genuinely hard -- retry at
      // maximum robustness, not with speed tricks layered back on.
      attempt_options.bypass_tol = 0.0;
      attempt_options.jacobian_reuse = false;
    }
    try {
      return Outcome<TransientResult>::success(engine.run_transient(attempt_options), attempt);
    } catch (const NumericalError& e) {
      last = e.info();
      last.attempts = attempt;
      // An exhausted step budget means the run was too *long*, not too
      // unstable; escalating to an even more damped setup only multiplies
      // the loss.
      if (last.code == FailureCode::kDeadlineExceeded) break;
    }
  }
  return Outcome<TransientResult>::fail(last);
}

}  // namespace mtcmos::spice
