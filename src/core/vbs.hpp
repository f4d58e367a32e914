#pragma once
// Variable-breakpoint switch-level simulator (paper Section 5).
//
// Every gate of a Netlist is reduced to an equivalent inverter: a
// stack-depth-derated gain factor beta (pull-down and pull-up) driving the
// effective load capacitance at its output.  Outputs are piecewise linear;
// gates begin switching when an input crosses V_dd / 2.  Discharging gates
// share the sleep resistance, so their slopes depend on how many of them
// are switching at once: whenever any gate starts or stops switching (a
// *breakpoint*), the virtual-ground voltage is re-solved from Eq. 5 and
// every active slope -- hence every predicted future breakpoint -- is
// recomputed.  This is the paper's Figure 9 semantics.
//
// Extensions beyond the published model, all opt-in and off by default so
// the default configuration is the paper's:
//   * body_effect: V_tn(V_x) correction inside the Eq. 5 solve (the paper
//     lists neglecting body effect as a limitation);
//   * virtual_ground_cap: C_x on the virtual ground turns V_x into an RC
//     state (Section 2.2) integrated with exponential segments;
//   * reverse_conduction: idle-low outputs track V_x (Section 2.3),
//     pre-charging them for later rising transitions, with a noise-margin
//     violation flag when V_x exceeds V_dd / 2;
//   * alpha / input_slope_factor: Sakurai-Newton current law and
//     input-slope lag (Section 5.3 limitations);
//   * sleep domains: gates may be partitioned across several independent
//     sleep devices (separate virtual grounds) -- the substrate for
//     hierarchical sizing with mutually exclusive discharge patterns.

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "core/vx_solver.hpp"
#include "netlist/netlist.hpp"
#include "waveform/trace.hpp"

namespace mtcmos::core {

struct VbsOptions {
  double sleep_resistance = 0.0;  ///< [Ohm]; 0 = ideal ground (CMOS baseline)
  double t_switch = 0.2e-9;       ///< input transition start [s]
  double input_ramp = 50e-12;     ///< input ramp length [s]
  bool body_effect = false;       ///< V_tn(V_x) refinement in the Eq. 5 solve
  double virtual_ground_cap = 0.0;  ///< C_x [F] per sleep domain; 0 = Eq. 5 V_x
  bool reverse_conduction = false;  ///< Section 2.3 output pinning
  /// Velocity-saturation index of the drive-current law I = (beta/2) u^a
  /// (Sakurai-Newton alpha-power, paper Eq. 2).  2.0 = the paper's square
  /// law; short-channel devices are nearer 1.3.
  double alpha = 2.0;
  /// Input-slope sensitivity (paper Section 5.3 limitation, implemented
  /// as an extension): a gate triggered by a transition of duration t_tr
  /// starts driving `input_slope_factor * t_tr` after the 50% crossing
  /// instead of instantly.  0 = the paper's instant-start model.
  double input_slope_factor = 0.0;
  double t_max = 1e-6;            ///< safety stop [s]
  /// Per-run breakpoint budget; 0 disables.  Exhaustion throws
  /// NumericalError with FailureCode::kDeadlineExceeded, so a breakpoint
  /// cascade degrades to a classified failure instead of spinning.
  std::size_t max_breakpoints = 0;
  /// Per-run wall-clock budget [s]; 0 disables.  Same kDeadlineExceeded
  /// semantics as max_breakpoints.
  double deadline_s = 0.0;
};

namespace detail {

// Numerical constants shared by the scalar kernel (vbs.cpp) and the batch
// kernel (vbs_batch.cpp).  The batch kernel replays the scalar
// floating-point sequence bit-for-bit, so both translation units must
// agree on these.
inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kEpsT = 1e-18;  ///< event coincidence window [s]
inline constexpr double kEpsV = 1e-9;   ///< rail/threshold arrival tolerance [V]

enum class Drive : std::uint8_t { kIdle, kUp, kDown };

struct GateScratch {
  Drive drive = Drive::kIdle;
  double vout = 0.0;
  double slope = 0.0;
};

struct InputEvent {
  double t = 0.0;
  netlist::NetId net = -1;
  bool value = false;
};

struct PendingEval {
  double t = 0.0;
  int gate = -1;
};

}  // namespace detail

/// Reusable scratch buffers for VbsSimulator::run.  A default-constructed
/// workspace works for any simulator; buffers grow to fit on first use and
/// are overwritten by every run, so reusing one workspace across a sweep
/// eliminates the per-call heap churn.  A workspace must not be shared by
/// two concurrent runs -- give each thread its own (the simulator itself
/// is immutable and can be shared freely).
struct VbsWorkspace {
  std::vector<bool> logic;   ///< per-net boolean state
  std::vector<bool> pins;    ///< fanin values handed to SpExpr::conducts
  std::vector<detail::GateScratch> state;
  std::vector<detail::InputEvent> input_events;
  std::vector<detail::PendingEval> pending;
  std::vector<int> to_reevaluate;
  std::vector<double> vx_state;
  std::vector<double> beta_dom;
  std::vector<double> u_dom;
  std::vector<double> vx_dom;
  std::vector<double> target_low;
  std::vector<VxSolution> eq_dom;
};

struct VbsResult {
  Trace outputs;        ///< channel per net (inputs as ramps, gate outputs PWL)
  Pwl virtual_ground;   ///< V_x(t) of sleep domain 0
  Pwl sleep_current;    ///< total discharge current, summed over domains
                        ///< (with R = 0: the current the ground rail sinks)
  Trace domain_grounds;   ///< "vgnd<k>" per sleep domain (multi-domain runs)
  Trace domain_currents;  ///< "isleep<k>" per sleep domain
  std::size_t breakpoints = 0;
  double finish_time = 0.0;       ///< time of the last breakpoint
  double vx_peak = 0.0;           ///< max V_x over all domains and time
  /// Energy drawn from the supply by rising output transitions,
  /// sum(Vdd * C_L * dV_rise) -- the CL*Vdd^2 switching energy of the run.
  double supply_energy = 0.0;
  bool noise_margin_violation = false;  ///< V_x crossed V_dd/2 (rev. conduction)
};

class VbsSimulator {
 public:
  /// Single sleep domain with options.sleep_resistance.  The netlist must
  /// outlive the simulator.  Malformed VbsOptions (negative resistance,
  /// ramp or C_x, alpha or input_slope_factor out of range, ...) throw
  /// NumericalError with FailureCode::kInvalidArgument; structural
  /// netlist/domain mismatches remain std::invalid_argument.
  VbsSimulator(const netlist::Netlist& nl, VbsOptions options);

  /// Multi-domain constructor: `gate_domain[g]` assigns gate g to a sleep
  /// domain, each with its own resistance.  Gates in different domains do
  /// not interact through the virtual ground (separate sleep devices).
  VbsSimulator(const netlist::Netlist& nl, VbsOptions options, std::vector<int> gate_domain,
               std::vector<double> domain_resistance);

  /// Simulate the v0 -> v1 input transition from a settled v0 state.
  VbsResult run(const std::vector<bool>& v0, const std::vector<bool>& v1) const;

  /// Same, reusing caller-owned scratch buffers (one workspace per
  /// thread).  `run` is const and touches no simulator state, so a single
  /// simulator may be shared by many threads each holding its own
  /// workspace.
  VbsResult run(const std::vector<bool>& v0, const std::vector<bool>& v1,
                VbsWorkspace& ws) const;

  /// Propagation delay from the 50% crossing of input net `in_name` to the
  /// 50% crossing of net `out_name` (any edge), using a fresh run.
  /// Returns a negative value if the output never switches.
  double delay(const std::vector<bool>& v0, const std::vector<bool>& v1,
               const std::string& in_name, const std::string& out_name) const;
  double delay(const std::vector<bool>& v0, const std::vector<bool>& v1,
               const std::string& in_name, const std::string& out_name,
               VbsWorkspace& ws) const;

  /// Latest 50% output crossing of any net in `out_names` relative to the
  /// input 50% crossing time -- the "circuit delay" used for the adder and
  /// multiplier experiments.  Negative if nothing switches.
  double critical_delay(const std::vector<bool>& v0, const std::vector<bool>& v1,
                        const std::vector<std::string>& out_names) const;
  double critical_delay(const std::vector<bool>& v0, const std::vector<bool>& v1,
                        const std::vector<std::string>& out_names, VbsWorkspace& ws) const;

  const VbsOptions& options() const { return options_; }

 private:
  friend class VbsBatchSimulator;  // SoA batch kernel (vbs_batch.hpp)

  /// Per-gate pulldown truth tables for the batch kernel: bit m of entry g
  /// is SpExpr::conducts for fanin assignment m (fanin p = bit p), for
  /// gates with <= 6 fanins (wider gates keep the expression walk).  Built
  /// on first use, so a simulator that never runs a batch never pays.
  const std::vector<std::uint64_t>& pulldown_tables() const;

  const netlist::Netlist& nl_;
  VbsOptions options_;
  std::vector<int> gate_domain_;
  std::vector<double> domain_r_;
  // Precomputed equivalent-inverter parameters per gate.
  std::vector<double> beta_n_;
  std::vector<double> beta_p_;
  std::vector<double> cload_;
  std::vector<double> slope_up_;  ///< constant rising-output slope [V/s]
  std::vector<int> topo_;
  mutable std::once_flag pulldown_once_;
  mutable std::vector<std::uint64_t> pulldown_tt_;
};

}  // namespace mtcmos::core
