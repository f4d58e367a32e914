#pragma once
// Batch (structure-of-arrays) companion of VbsSimulator (ROADMAP item 2).
//
// The scalar kernel in vbs.cpp spends most of a sweep's wall clock on
// per-vector bookkeeping that the sweep immediately throws away: every
// breakpoint appends to string-keyed Trace channels, every run builds a
// fresh VbsResult, and every transition re-settles the v0 logic state from
// scratch.  VbsBatchSimulator evaluates a *batch* of v0 -> v1 transitions
// together instead, in one kernel:
//
//   * state is laid out structure-of-arrays, gate-major: vout[g*B + lane],
//     drive[g*B + lane], per-domain V_x rows, with no per-lane heap
//     allocation inside the breakpoint loop;
//   * each round advances every live lane to *its own* next breakpoint
//     (lanes do not synchronize in simulated time, only in program
//     order), so a lane's arithmetic sequence is exactly the scalar
//     kernel's;
//   * the kernel is delay-only: instead of recording full waveforms it
//     replays Pwl::append / Pwl::last_crossing online against the V_dd/2
//     level for just the monitored output nets, which is where the scalar
//     path's time actually goes;
//   * each round builds one list of its driving (gate, lane) cells --
//     gate-ascending, falling before rising within a gate -- and the
//     beta, slope/candidate, advance and crossing passes walk only that
//     list, so idle cells cost nothing; beta is not accumulated in an
//     R = 0 domain, whose Eq. 5 solve never reads it;
//   * the Eq. 5 re-solve goes through the batched closed form
//     (solve_vx_batch) when alpha == 2 without body effect;
//   * lanes that finish or fail are swap-retired out of a dense live
//     prefix, so every pass runs over live lanes only;
//   * gates with <= 6 fanins evaluate through the simulator's pulldown
//     truth tables, built once on its first batch call;
//   * the general-alpha / body-effect Eq. 5 path dedups identical
//     discharger sets per domain per round;
//   * transitions that share the settled v0 state reuse one logic
//     settling pass (shared-prefix reuse) -- in an ordered all-pairs
//     sweep a whole chunk typically shares its v0 -- and each *new* v0 is
//     settled incrementally from its Hamming-nearest settled neighbor,
//     propagating only the dirty logic cone.
//
// Determinism contract: for every lane, critical_delays() returns a value
// bit-identical to VbsSimulator::critical_delay(v0, v1, out_names) on the
// same simulator, for every VbsOptions extension (body_effect,
// virtual_ground_cap, reverse_conduction, alpha, input_slope_factor) and
// any domain partition.  A lane whose scalar run would throw
// NumericalError reports that failure in its result slot instead; the
// other lanes are unaffected.  The only intentional divergence is
// options.deadline_s, which is wall-clock-based and therefore not
// bit-reproducible on either path; the batch kernel applies the shared
// deadline to every live lane each round.  vbs_batch_test.cpp enforces
// the contract.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/vbs.hpp"
#include "util/failure.hpp"

namespace mtcmos::core {

/// One lane of a batch: a v0 -> v1 input transition.  The pointed-to
/// vectors are caller-owned and must outlive the call.
struct VbsBatchItem {
  const std::vector<bool>* v0 = nullptr;
  const std::vector<bool>* v1 = nullptr;
};

/// Per-lane outcome: the critical delay, or the classified failure the
/// scalar path would have thrown for the same transition.
struct VbsLaneResult {
  double delay = -1.0;  ///< negative when no monitored output switches
  bool ok = true;
  FailureInfo failure;  ///< meaningful only when !ok
};

/// Reusable SoA scratch for VbsBatchSimulator, the batch analogue of
/// VbsWorkspace: buffers grow to fit on first use and are overwritten by
/// every call.  One workspace per thread; the batch simulator itself is
/// immutable and may be shared.
struct VbsBatchWorkspace {
  // Gate-major [gate * lanes + lane].
  std::vector<detail::Drive> drive;
  std::vector<double> vout;
  // Net-major [net * lanes + lane].
  std::vector<std::uint8_t> logic;
  // Domain-major [domain * lanes + lane].
  std::vector<double> beta_dom;
  std::vector<double> u_dom;
  std::vector<double> vx_dom;
  std::vector<double> vx_state;
  std::vector<double> eq_vx;
  std::vector<double> target_low;
  // Per lane.
  std::vector<double> t_now;
  std::vector<double> t_next;
  std::vector<double> dt;
  std::vector<std::uint8_t> running;
  std::vector<std::size_t> breakpoints;
  // Flattened per-lane input-event spans [event_begin[l], event_end[l]).
  std::vector<detail::InputEvent> events;
  std::vector<std::size_t> next_event;
  std::vector<std::size_t> event_begin;
  std::vector<std::size_t> event_end;
  // Delayed gate activations (input-slope extension), per lane.
  std::vector<std::vector<detail::PendingEval>> pending;
  // Event-stage scratch: the whole round's re-evaluations as packed
  // (lane << 32 | gate) keys.
  std::vector<std::uint64_t> reeval_pairs;
  std::vector<bool> pins;
  // Shared-prefix reuse: settled logic per distinct v0 in the batch.
  std::vector<std::uint8_t> settled_logic;  ///< [group * nets + net]
  std::vector<std::size_t> settled_rep;     ///< representative item index
  // Monitored-output crossing trackers [monitor * lanes + lane]: an online
  // replay of Pwl::append + Pwl::last_crossing for the V_dd/2 level.
  std::vector<double> mon_ta, mon_va;  ///< second-to-last committed point
  std::vector<double> mon_tb, mon_vb;  ///< last appended point
  std::vector<double> mon_cross;       ///< latest finalized crossing time
  std::vector<std::uint8_t> mon_npts;  ///< 0 = empty, 1 = one point, 2 = two+
  std::vector<std::uint8_t> mon_has;
  // Resolved out_names plan (rebuilt per call).
  std::vector<int> mon_gate;     ///< monitored gate per tracker row
  std::vector<int> mon_of_gate;  ///< per gate: tracker row or -1
  struct OutRef {
    int kind = 0;  ///< 0 = no channel, 1 = gate output, 2 = circuit input
    int mon = -1;
    int input = -1;
  };
  std::vector<OutRef> out_refs;
  // Scheduler state.
  std::vector<std::size_t> slot_item;     ///< live slot -> original item index
  std::vector<std::uint32_t> gate_active; ///< per gate: live lanes with a non-idle drive
  std::vector<std::uint32_t> lane_active; ///< per lane: gates with a non-idle drive
  // The round's driving (gate, lane) cells, rebuilt each round: one run
  // per gate with a driving lane, in ascending gate order; a run's lanes
  // are cell_lane[begin, split) falling, then cell_lane[split, end)
  // rising.
  struct CellRun {
    int gate = -1;
    std::uint32_t begin = 0, split = 0, end = 0;
  };
  std::vector<CellRun> cell_runs;
  std::vector<std::uint32_t> cell_lane;
  std::vector<double> cell_slope;         ///< falling cells: the round's slope
  std::vector<std::uint64_t> group_key;   ///< packed v0 per settle group (n_in <= 64)
  std::vector<std::uint8_t> net_dirty;    ///< incremental-settle cone scratch
};

class VbsBatchSimulator {
 public:
  /// The wrapped simulator (and its netlist) must outlive the batch
  /// simulator.  Construction is cheap; no per-batch state is kept here.
  explicit VbsBatchSimulator(const VbsSimulator& sim) : sim_(sim) {}

  /// Batched equivalent of calling sim.critical_delay(*v0, *v1, out_names)
  /// once per item.  results[i].delay is bit-identical to the scalar
  /// return value; a lane whose scalar run would throw NumericalError gets
  /// that FailureInfo in its slot.  Input vectors of the wrong size throw
  /// std::invalid_argument for the whole call, as the scalar path does.
  void critical_delays(const VbsBatchItem* items, std::size_t count,
                       const std::vector<std::string>& out_names, VbsBatchWorkspace& ws,
                       VbsLaneResult* results) const;

  std::vector<VbsLaneResult> critical_delays(const std::vector<VbsBatchItem>& items,
                                             const std::vector<std::string>& out_names,
                                             VbsBatchWorkspace& ws) const;

  const VbsSimulator& simulator() const { return sim_; }

 private:
  void run(const VbsBatchItem* items, std::size_t count,
           const std::vector<std::string>& out_names, VbsBatchWorkspace& ws,
           VbsLaneResult* results) const;

  const VbsSimulator& sim_;
};

}  // namespace mtcmos::core
