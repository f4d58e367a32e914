#pragma once
// The benchmark workloads.  Each fills `r` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) and counts every
// output check it makes.

#include "common.hpp"

namespace perfbench {

void run_sweep_ckpt(const RunConfig& cfg, RunResult& r);
void run_daemon_mix(const RunConfig& cfg, RunResult& r);
void run_campaign_corners(const RunConfig& cfg, RunResult& r);

/// SPICE sign-off of the VBS ranking's worst transitions (untimed output
/// check; with a tracer, also the spice.* layer metrics).
void verify_on_spice(const RunConfig& cfg, RunResult& r, Tracer* tracer);

}  // namespace perfbench
