#pragma once
// Value types shared by the evaluation layer: vector transitions, sweep
// measurements, the per-item retry budget, and sizing results.  Split out of
// sizing.hpp so the backend abstraction (sizing/backend.hpp) and the
// transistor-level reference (sizing/spice_ref.hpp) can speak the same
// vocabulary without pulling in the sweep entry points.

#include <vector>

namespace mtcmos::sizing {

/// A v0 -> v1 input transition.
struct VectorPair {
  std::vector<bool> v0;
  std::vector<bool> v1;
};

/// Per-vector delay measurement at a given sizing.
struct VectorDelay {
  VectorPair pair;
  double delay_cmos = -1.0;    ///< [s], sleep path ideal (R = 0)
  double delay_mtcmos = -1.0;  ///< [s], at the evaluated W/L
  double degradation_pct = 0.0;
};

/// Attempts per sweep item.  Every sweep entry point runs each item inside
/// this retry budget and records its Outcome into an index-addressed slot,
/// so one diverging item cannot tear down a batch of thousands and the
/// surviving results stay bit-identical to a serial no-fault run.  Only
/// numerical failures are retried and isolated; precondition errors
/// (std::invalid_argument) always propagate.
inline constexpr int kItemAttempts = 2;

/// Result of a degradation-targeted sizing run.
struct SizingResult {
  double wl = 0.0;                 ///< minimal W/L meeting the target
  double degradation_pct = 0.0;    ///< achieved worst-vector degradation
  VectorPair binding_vector;       ///< the vector that binds the sizing
};

}  // namespace mtcmos::sizing
