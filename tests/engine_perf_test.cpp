// Hot-path contract tests for the allocation-free Newton kernel, the
// device-evaluation bypass, modified-Newton Jacobian reuse, and the
// SpiceBackend engine pool:
//   * default options stay bit-reproducible -- across engine instances,
//     across repeated runs of one engine, and after an accelerated run
//     has populated the bypass/factorization caches;
//   * bypass + reuse stay inside a bounded voltage band (<= 0.5 mV on the
//     fig05 inverter tree);
//   * EngineStats counters actually count (bypass hits accumulate on a
//     settling tail, Jacobian reuse factorizes less than it solves).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "models/technology.hpp"
#include "netlist/expand.hpp"
#include "sizing/backend.hpp"
#include "sizing/spice_ref.hpp"
#include "spice/engine.hpp"
#include "util/units.hpp"

namespace mtcmos {
namespace {

using sizing::SpiceBackend;
using sizing::SpiceBackendOptions;
using units::ns;
using units::ps;

/// Expanded fig05-style inverter tree (sleep FET ground) with the input
/// switching 0 -> 1, ready for engine-level runs.
netlist::Expanded expanded_tree(double sleep_wl) {
  const auto tree = circuits::make_inverter_tree(tech07());
  netlist::ExpandOptions opt;
  opt.sleep_wl = sleep_wl;
  return netlist::to_spice(tree.netlist, opt, {false}, {true});
}

spice::TransientOptions tree_options(double tstop) {
  spice::TransientOptions topt;
  topt.tstop = tstop;
  topt.dt = 2.0 * ps;
  topt.record_all_nodes = true;
  return topt;
}

bool traces_bit_identical(const Trace& a, const Trace& b) {
  if (a.names() != b.names()) return false;
  for (const std::string& name : a.names()) {
    const Pwl& wa = a.get(name);
    const Pwl& wb = b.get(name);
    if (wa.times() != wb.times() || wa.values() != wb.values()) return false;
  }
  return true;
}

TEST(EnginePerf, DefaultOptionsAreBitReproducible) {
  const auto ex = expanded_tree(8.0);
  const spice::TransientOptions topt = tree_options(6.0 * ns);

  // Two independent engines and two runs of one engine must agree on
  // every recorded sample exactly: the reused workspace carries no state
  // between runs.
  spice::Engine a(ex.circuit);
  spice::Engine b(ex.circuit);
  const auto run_a1 = a.run_transient(topt);
  const auto run_a2 = a.run_transient(topt);
  const auto run_b = b.run_transient(topt);
  EXPECT_TRUE(traces_bit_identical(run_a1.voltages, run_a2.voltages));
  EXPECT_TRUE(traces_bit_identical(run_a1.voltages, run_b.voltages));
}

TEST(EnginePerf, AcceleratedRunLeaksNoStateIntoDefaultRuns) {
  const auto ex = expanded_tree(8.0);
  const spice::TransientOptions topt = tree_options(6.0 * ns);
  spice::TransientOptions accel = topt;
  accel.bypass_tol = 5e-5;
  accel.jacobian_reuse = true;

  spice::Engine eng(ex.circuit);
  const auto before = eng.run_transient(topt);
  (void)eng.run_transient(accel);  // populates bypass + factorization caches
  const auto after = eng.run_transient(topt);
  EXPECT_TRUE(traces_bit_identical(before.voltages, after.voltages));
}

TEST(EnginePerf, BypassAndReuseStayInsideHalfMillivoltOnFig05Tree) {
  const auto ex = expanded_tree(8.0);
  const spice::TransientOptions exact_opt = tree_options(12.0 * ns);
  spice::TransientOptions accel_opt = exact_opt;
  accel_opt.bypass_tol = 5e-5;
  accel_opt.jacobian_reuse = true;

  spice::Engine eng(ex.circuit);
  const auto exact = eng.run_transient(exact_opt);
  const auto accel = eng.run_transient(accel_opt);

  // Compare on a common time grid (step halving may differ between the
  // two runs, so raw sample points need not line up).
  double worst = 0.0;
  for (const std::string& name : exact.voltages.names()) {
    ASSERT_TRUE(accel.voltages.has(name)) << name;
    const Pwl& we = exact.voltages.get(name);
    const Pwl& wa = accel.voltages.get(name);
    for (int k = 0; k <= 600; ++k) {
      const double t = exact_opt.tstop * k / 600.0;
      worst = std::max(worst, std::abs(we.sample(t) - wa.sample(t)));
    }
  }
  EXPECT_LE(worst, 0.5e-3) << "bypass/reuse drifted " << worst * 1e3 << " mV from the exact run";
}

TEST(EnginePerf, StatsCountBypassHitsOnSettlingTail) {
  const auto ex = expanded_tree(8.0);
  // Long window: the edge lands early, so most of the run is a settling
  // tail where every device sits still -- prime bypass territory.
  spice::TransientOptions topt = tree_options(12.0 * ns);
  topt.bypass_tol = 5e-5;
  topt.jacobian_reuse = true;

  spice::Engine eng(ex.circuit);
  eng.reset_stats();
  EXPECT_GT(eng.stats().workspace_bytes, 0u);
  (void)eng.run_transient(topt);
  const spice::EngineStats& s = eng.stats();
  EXPECT_GT(s.bypass_hits, 0u);
  EXPECT_GT(s.device_evals, 0u);
  EXPECT_GT(s.bypass_hits, s.device_evals);  // the tail dominates this run
  EXPECT_GT(s.solves, 0u);
  EXPECT_LT(s.factorizations, s.solves);  // Jacobian reuse skipped most LUs
  EXPECT_EQ(s.newton_iters, s.solves);

  // The default path must not touch the bypass counters.
  eng.reset_stats();
  (void)eng.run_transient(tree_options(2.0 * ns));
  EXPECT_EQ(eng.stats().bypass_hits, 0u);
  EXPECT_EQ(eng.stats().full_newton_fallbacks, 0u);
}

TEST(EnginePerf, BackendAggregatesEngineStats) {
  circuits::InverterTreeOptions topt;
  topt.fanout = 1;
  topt.stages = 2;
  const auto chain = circuits::make_inverter_tree(tech07(), topt);
  const std::string leaf = chain.netlist.net_name(chain.leaves[0]);
  SpiceBackendOptions sopt;
  sopt.tstop = 8.0 * ns;
  const SpiceBackend backend(chain.netlist, {leaf}, sopt);
  EXPECT_GT(backend.delay_at_wl({{false}, {true}}, 8.0), 0.0);
  const spice::EngineStats s = backend.engine_stats();
  EXPECT_GT(s.device_evals, 0u);
  EXPECT_GT(s.bypass_hits, 0u);  // backend defaults enable the bypass
  EXPECT_GT(s.workspace_bytes, 0u);
}

}  // namespace
}  // namespace mtcmos
