#pragma once
// Sleep-transistor sizing methodologies (the paper's purpose).
//
// Three estimators, in increasing order of intelligence:
//   1. sum_of_widths_wl  -- "sum the widths of internal low-Vt
//      transistors" (Section 2: "unnecessarily large estimates").
//   2. peak_current_wl   -- size so the worst-case current spike keeps the
//      virtual-ground bounce under a budget (Section 4: "extremely
//      conservative"; the paper's example lands ~3x too big).
//   3. size_for_degradation -- the paper's methodology: sweep/bisect the
//      sleep W/L with the variable-breakpoint simulator until the worst
//      vector's % delay degradation meets the target.
//
// Plus the vector-space machinery those need: exhaustive enumeration for
// small circuits (the 4096-vector adder of Section 6.2), seeded sampling
// and greedy bit-flip refinement for large ones (the 8x8 multiplier of
// Section 4), and ranked degradation reports (Figure 14).
//
// The sweep entry points themselves (rank_vectors, size_for_degradation,
// search_worst_vector, screen_vectors) live in sizing/session.hpp, written
// against EvalBackend + EvalSession so the same code runs on the
// switch-level VbsBackend or the transistor-level SpiceBackend.  This
// header includes both so one include serves a whole sizing flow.

#include <string>
#include <vector>

#include "core/vbs.hpp"
#include "models/technology.hpp"
#include "netlist/netlist.hpp"
#include "sizing/backend.hpp"
#include "sizing/eval_types.hpp"
#include "sizing/session.hpp"
#include "util/failure.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mtcmos::sizing {

using netlist::Netlist;

// --- Baseline estimators ---

/// Baseline 1: W/L that matches the summed width of every low-Vt NMOS.
double sum_of_widths_wl(const Netlist& nl);

/// Baseline 2: W/L such that a (fixed) peak current `ipeak` drops no more
/// than `bounce_budget` volts across R_eff.
double peak_current_wl(const Technology& tech, double ipeak, double bounce_budget);

/// Peak total discharge current for a vector, measured with an ideal
/// sleep path (R = 0), i.e. the "worst case peak current" Section 4 would
/// design for.
double measure_peak_current(const Netlist& nl, const VectorPair& vp,
                            core::VbsOptions base = {});

// --- Vector-space exploration ---

/// Largest input count whose vector space is enumerated exhaustively
/// (65536 transitions) by the CLI, the daemon and campaigns; wider ones are sampled.
constexpr int kMaxExhaustiveInputs = 8;

/// All 2^n * 2^n transitions of an n-input circuit (n <= kMaxExhaustiveInputs).
std::vector<VectorPair> all_vector_pairs(int n_inputs);

/// `count` transitions sampled uniformly (deterministic under the seed).
std::vector<VectorPair> sampled_vector_pairs(int n_inputs, int count, Rng& rng);

// --- Logic-level screening (a pre-filter before even the fast simulator) ---

/// Static simultaneous-discharge estimate for a transition: the summed
/// effective pull-down gain of every gate whose steady-state output falls
/// from v0 to v1.  No timing is involved -- it upper-bounds how much
/// current *could* flow through the sleep device at once, and correlates
/// strongly with MTCMOS sensitivity (paper Section 2.4: vectors "that
/// will cause large currents to flow through the sleep transistors").
double falling_discharge_weight(const Netlist& nl, const VectorPair& vp);

}  // namespace mtcmos::sizing
