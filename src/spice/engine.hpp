#pragma once
// Nonlinear transient engine (the toolkit's "SPICE").
//
// Formulation: Newton-Raphson on the KCL residual F(v) = 0 over the
// unknown nodes (everything except ground and nodes driven by grounded
// ideal voltage sources).  Each Newton iteration stamps the Jacobian into
// a pre-patterned SparseLu and solves J dv = -F with per-iteration dv
// clamping (the classic fetlim-style damping that keeps MOS circuits
// convergent).
//
// Integration: trapezoidal companion models for capacitors, with a
// backward-Euler first step and backward-Euler retry steps; on Newton
// failure the step is recursively halved.  DC operating point uses gmin
// stepping when the plain solve diverges.
//
// Hot path: the Newton kernel is allocation-free.  All per-iteration
// vectors (residuals, rhs/update, line-search trials, per-step voltage
// trials) live in a NewtonWorkspace owned by the engine and reused across
// iterations, steps, and runs.  Two opt-in accelerations trade bitwise
// reproducibility for speed (both off by default, both enabled by the
// sizing::SpiceBackend reference path):
//   * device-evaluation bypass: each MOSFET caches its last terminal
//     voltages and operating point; when every |dV| < bypass_tol the
//     Level-1 evaluation is skipped and the cached conductances are
//     restamped (the same latency-driven selective recomputation the
//     paper's variable-breakpoint simulator exploits);
//   * modified-Newton Jacobian reuse: the LU snapshot is reused across
//     iterations and steps, refactorizing only when the iteration stalls;
//     non-convergence falls back to a full Newton retry of the same
//     solve, so the recovery-ladder semantics are unchanged.
//
// This engine is the accuracy reference of the toolkit, playing the role
// SPICE plays in the paper's Figures 5, 7, 10, 11, 13, 14 and Table 1.

#include <cstdint>
#include <string>
#include <vector>

#include "models/level1.hpp"
#include "spice/circuit.hpp"
#include "util/sparse_lu.hpp"
#include "waveform/trace.hpp"

namespace mtcmos::spice {

struct TransientOptions {
  double tstop = 0.0;       ///< end time [s]
  double dt = 2e-12;        ///< nominal (adaptive: initial) step [s]
  double dt_min = 1e-16;    ///< giving-up threshold for step halving [s]
  /// Adaptive time stepping: the step grows/shrinks to hold the local
  /// truncation error (estimated from a linear predictor against the
  /// corrected solution) near lte_tol.  Big win on long settling tails;
  /// the default fixed-step mode remains bit-reproducible.
  bool adaptive = false;
  double lte_tol = 2e-4;    ///< LTE target [V]
  double dt_max = 0.0;      ///< adaptive step cap [s]; 0 = 20x dt
  int max_newton = 60;      ///< Newton iteration cap per step
  double vtol = 1e-6;       ///< absolute convergence tolerance [V]
  double reltol = 1e-4;     ///< relative convergence tolerance
  double dv_clamp = 0.5;    ///< per-iteration Newton update clamp [V]
  bool record_all_nodes = false;          ///< probe every node
  std::vector<std::string> voltage_probes;  ///< node names to record
  std::vector<std::string> current_probes;  ///< device names to record
  /// Optional initial guess for the t=0 DC solve, indexed by NodeId
  /// (e.g. rail values from boolean evaluation).  Greatly improves DC
  /// robustness on large logic blocks.
  std::vector<double> dc_initial_guess;
  /// Integrate every step with backward Euler instead of trapezoidal.
  /// More damped (no trapezoidal ringing) at the cost of accuracy; the
  /// recovery ladder's first escalation rung.
  bool backward_euler = false;
  /// Per-run accepted-step budget; 0 disables.  When exhausted the run
  /// throws NumericalError with FailureCode::kDeadlineExceeded, so a
  /// runaway transient degrades to a classified failure instead of
  /// hanging a sweep worker.
  std::size_t max_steps = 0;
  /// Device-evaluation bypass threshold [V]; 0 disables (default, bit-
  /// reproducible).  When > 0, a MOSFET whose four terminal voltages all
  /// moved less than this since its last evaluation is restamped from its
  /// cached operating point instead of re-evaluated.  Node voltages can
  /// drift from the exact solution by about this order, so keep it well
  /// under the engine tolerances' scale (SpiceBackend uses 5e-5).
  double bypass_tol = 0.0;
  /// Modified-Newton Jacobian reuse: solve against the last LU snapshot
  /// and refactorize only when the iteration stalls (or on a
  /// step-signature change).  Off by default (bit-reproducible); a solve
  /// that fails to converge under reuse is retried with full Newton
  /// before the step is declared failed, so step halving and the recovery
  /// ladder behave exactly as without reuse.
  bool jacobian_reuse = false;
};

struct TransientResult {
  Trace voltages;  ///< one channel per probed node
  Trace currents;  ///< one channel per probed device
  std::size_t steps = 0;
  std::size_t newton_iterations = 0;
};

/// Cumulative hot-path counters (never reset by runs; see reset_stats).
/// Mirrors the cache_stats() idiom of the sizing backends: cheap plain
/// counters, read when the engine is quiescent.
struct EngineStats {
  std::uint64_t device_evals = 0;    ///< Level-1 MOSFET evaluations performed
  std::uint64_t bypass_hits = 0;     ///< evaluations skipped via the bypass cache
  std::uint64_t factorizations = 0;  ///< LU refactorizations
  std::uint64_t solves = 0;          ///< forward/back substitutions
  std::uint64_t newton_iters = 0;    ///< Newton iterations (all solves)
  std::uint64_t full_newton_fallbacks = 0;  ///< reuse solves retried with full Newton
  std::size_t workspace_bytes = 0;   ///< bytes held by the Newton workspace
};

class Engine {
 public:
  /// The circuit must stay alive for the engine's lifetime.  Topology is
  /// frozen at construction; source *waveforms* may still be swapped via
  /// Circuit::set_vsource between runs.
  explicit Engine(const Circuit& circuit, double gmin = 1e-12);

  /// DC operating point with source values evaluated at `at_time`.
  /// Returns the full node-voltage vector indexed by NodeId.  An optional
  /// `initial_guess` (indexed by NodeId) seeds Newton; on failure the
  /// solver falls back to gmin stepping and then source stepping.
  std::vector<double> dc_operating_point(double at_time = 0.0,
                                         const std::vector<double>* initial_guess = nullptr);

  TransientResult run_transient(const TransientOptions& options);

  /// Current through a resistor (a->b) or MOSFET (declared drain ->
  /// declared source) at the given node voltages.  DC only (capacitor
  /// currents are state-dependent).
  double dc_device_current(const std::string& name, const std::vector<double>& voltages) const;

  int unknown_count() const { return n_unknowns_; }

  /// Baseline shunt conductance to ground on every unknown node.  The
  /// recovery ladder raises it between attempts to tame near-singular
  /// operating points, then restores the original value.
  double gmin() const { return gmin_; }
  void set_gmin(double gmin);

  /// Cumulative hot-path counters; valid whenever no run is in flight.
  const EngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = EngineStats{}; stats_.workspace_bytes = workspace_bytes(); }

 private:
  struct MosSlots {
    // Jacobian slots, rows {d, s} x cols {d, g, s, b}; -1 where the row or
    // column node is not an unknown.
    int rows[2][4] = {{-1, -1, -1, -1}, {-1, -1, -1, -1}};
  };
  struct TwoNodeSlots {
    int aa = -1, ab = -1, ba = -1, bb = -1;
  };

  /// Effective operating point of a MOSFET: terminals resolved so the
  /// model sees vds >= 0, with `sign` mapping model current back to real
  /// current.
  struct MosOp {
    NodeId eff_d = kGround;  ///< effective drain (real node id)
    NodeId eff_s = kGround;  ///< effective source
    double sign = 1.0;       ///< +1 NMOS, -1 PMOS
    bool swapped = false;    ///< effective drain == declared source
    MosEval eval;
  };
  static MosOp eval_mosfet_op(const Mosfet& m, const std::vector<double>& v);

  /// Per-device bypass cache: the terminal voltages of the last Level-1
  /// evaluation and the operating point it produced.
  struct MosCache {
    bool valid = false;
    double vd = 0.0, vg = 0.0, vs = 0.0, vb = 0.0;
    MosOp op;
  };

  void build_pattern();
  bool is_unknown(NodeId n) const { return unknown_index_[static_cast<std::size_t>(n)] >= 0; }
  int uidx(NodeId n) const { return unknown_index_[static_cast<std::size_t>(n)]; }

  /// Set driven-node voltages in `v` from source waveforms at time t,
  /// optionally scaled (for source-stepping homotopy).
  void apply_sources(double t, std::vector<double>& v, double scale = 1.0) const;

  struct CapState {
    double v_branch = 0.0;  ///< branch voltage at previous accepted step
    double i_branch = 0.0;  ///< branch current at previous accepted step
  };

  /// Stamp residual + Jacobian for voltages `v`.  When `transient`, uses
  /// capacitor companion models with step `dt` and method `use_be`.
  /// When `allow_bypass`, MOSFETs within bypass_tol of their cached
  /// terminal voltages restamp the cached operating point.
  void assemble(const std::vector<double>& v, bool transient, double dt, bool use_be,
                const std::vector<CapState>& caps, double extra_gmin, std::vector<double>& f,
                bool allow_bypass);

  /// One Newton solve at fixed sources; updates `v` in place; returns
  /// iteration count or -1 on failure.  With `reuse_jacobian`, runs
  /// modified Newton first and retries the whole solve with full Newton
  /// (from the entry voltages) on non-convergence.
  int newton_solve(std::vector<double>& v, bool transient, double dt, bool use_be,
                   const std::vector<CapState>& caps, double extra_gmin, int max_iter,
                   double vtol, double reltol, double dv_clamp, bool allow_bypass = false,
                   bool reuse_jacobian = false);

  /// The core iteration behind newton_solve (no fallback logic).
  int newton_iterate(std::vector<double>& v, bool transient, double dt, bool use_be,
                     const std::vector<CapState>& caps, double extra_gmin, int max_iter,
                     double vtol, double reltol, double dv_clamp, bool allow_bypass,
                     bool reuse_jacobian);

  /// Signature of the system a factorization snapshot belongs to;
  /// reuse is only legal while it matches.
  struct FactorSig {
    bool transient = false;
    double dt = 0.0;
    bool use_be = false;
    double extra_gmin = 0.0;
    double gmin = 0.0;
    bool operator==(const FactorSig&) const = default;
  };

  std::size_t workspace_bytes() const;
  void invalidate_run_caches();

  /// MOSFET drain->source current (declared terminals) at voltages v.
  double mosfet_current(const Mosfet& m, const std::vector<double>& v) const;

  /// Diagnostic context for DC failures: source scale, unknown count, and
  /// the node carrying the worst KCL residual at voltages `v`.
  std::string residual_context(const std::vector<double>& v, double scale);

  /// Current delivered into the circuit by the grounded source driving
  /// `node` (sum of currents leaving the node through devices).
  double source_current(NodeId node, const std::vector<double>& v,
                        const std::vector<CapState>& caps, double t) const;

  const Circuit& ckt_;
  double gmin_;
  int n_unknowns_ = 0;
  std::vector<int> unknown_index_;  ///< NodeId -> unknown index or -1
  std::vector<NodeId> unknown_nodes_;

  SparseLu lu_;
  std::vector<TwoNodeSlots> res_slots_;
  std::vector<TwoNodeSlots> cap_slots_;
  std::vector<MosSlots> mos_slots_;
  std::vector<int> gmin_slots_;

  // --- Newton workspace: preallocated in build_pattern(), reused by every
  // solve.  Unknown-indexed unless noted.
  std::vector<double> ws_f_;        ///< residual at the current point
  std::vector<double> ws_f_try_;    ///< residual at the line-search trial
  std::vector<double> ws_rhs_;      ///< -f, overwritten with dv by solve_inplace
  std::vector<double> ws_ax_;       ///< debug-only A*dv scratch
  std::vector<double> ws_v_try_;    ///< line-search trial voltages (node-indexed)
  std::vector<double> ws_v_entry_;  ///< solve entry voltages for full-Newton fallback (node-indexed)
  std::vector<double> ws_step_v_;   ///< per-step trial voltages (node-indexed)
  std::vector<CapState> ws_zero_caps_;  ///< all-zero cap states for DC solves

  // --- Device-evaluation bypass.
  double bypass_tol_ = 0.0;          ///< active threshold (0 while disabled)
  std::vector<MosCache> mos_cache_;  ///< one slot per MOSFET

  // --- Modified-Newton factorization snapshot tracking.
  bool factor_valid_ = false;   ///< lu_'s snapshot matches factor_sig_ at some recent v
  FactorSig factor_sig_;

  EngineStats stats_;
};

}  // namespace mtcmos::spice
