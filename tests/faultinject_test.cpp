// Tests for the robustness stack as a whole, driven through the
// deterministic fault-injection harness: coded failures surface from the
// solvers, the recovery ladder retries them, sweeps isolate them, and
// deadlines bound runaway runs.  Labeled `faultinject` so sanitizer
// builds can target exactly these with `ctest -L faultinject`.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "circuits/generators.hpp"
#include "sizing/sizing.hpp"
#include "spice/circuit.hpp"
#include "spice/engine.hpp"
#include "spice/recovery.hpp"
#include "util/faultinject.hpp"
#include "util/units.hpp"

namespace mtcmos {
namespace {

using circuits::make_ripple_adder;
using sizing::VbsBackend;
using sizing::VectorDelay;
using sizing::VectorPair;
using units::fF;
using units::ns;
using units::ps;

// Every test disarms on exit so a failing assertion cannot leak an armed
// plan into the rest of the suite.
class FaultInject : public ::testing::Test {
 protected:
  void TearDown() override { faultinject::disarm_all(); }
};

std::vector<std::string> adder_outputs(const circuits::RippleAdder& adder) {
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  return outs;
}

/// RC charge circuit: converges trivially, so any failure is injected.
spice::Circuit rc_circuit() {
  spice::Circuit ckt;
  const spice::NodeId src = ckt.node("src");
  const spice::NodeId out = ckt.node("out");
  ckt.add_vsource("V1", src, Pwl::step(0.0, 1.0, 0.0, 1.0 * ps));
  ckt.add_resistor("R1", src, out, 10e3);
  ckt.add_capacitor("C1", out, spice::kGround, 100 * fF);
  return ckt;
}

spice::TransientOptions rc_options() {
  spice::TransientOptions opt;
  opt.tstop = 4.0 * ns;
  opt.dt = 2.0 * ps;
  opt.voltage_probes = {"out"};
  return opt;
}

TEST_F(FaultInject, PlansAreScopeAddressedAndCounted) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  const VectorPair vp{{false, false, false, false}, {true, true, true, true}};

  faultinject::arm(faultinject::Site::kVbsRun, /*scope=*/5, /*fail_hits=*/-1);
  // Default scope does not match a plan pinned to scope 5.
  EXPECT_GT(eval.delay_at_wl(vp, 10.0), 0.0);
  EXPECT_EQ(faultinject::injected_count(), 0u);
  {
    faultinject::ScopedScope scope(5);
    try {
      eval.delay_at_wl(vp, 10.0);
      FAIL() << "expected an injected NumericalError";
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.info().code, FailureCode::kInjected);
      EXPECT_EQ(e.info().site, "VbsSimulator::run");
      EXPECT_NE(e.info().context.find("injected"), std::string::npos);
    }
  }
  EXPECT_EQ(faultinject::injected_count(), 1u);
  faultinject::disarm_all();
  {
    faultinject::ScopedScope scope(5);
    EXPECT_GT(eval.delay_at_wl(vp, 10.0), 0.0);
  }
}

// The headline acceptance test: a parallel ranking over 256 vectors with
// one hard fault per reachable injection site loses exactly those three
// items, and the survivors are bit-identical to a serial no-fault run
// over the surviving subset.
TEST_F(FaultInject, RankVectorsIsolatesOneFaultPerSite) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  ASSERT_EQ(vectors.size(), 256u);
  const double wl = 10.0;

  const std::vector<std::pair<faultinject::Site, std::size_t>> faults = {
      {faultinject::Site::kSweepItem, 10},
      {faultinject::Site::kVbsRun, 100},
      {faultinject::Site::kVbsBreakpoint, 200},
  };
  // Hard faults: they fire on every attempt, so the per-item retry cannot
  // save these three items.
  for (const auto& [site, scope] : faults) {
    faultinject::arm(site, static_cast<std::int64_t>(scope), /*fail_hits=*/-1);
  }

  util::ThreadPool pool(4);
  SweepReport report;
  const auto ranked =
      sizing::rank_vectors(eval, vectors, wl, {.pool = &pool, .report = &report});

  EXPECT_EQ(report.total, 256u);
  EXPECT_EQ(report.failed, 3u);
  EXPECT_EQ(report.succeeded, 253u);
  EXPECT_EQ(report.recovered, 0u);
  ASSERT_EQ(report.failures.size(), 3u);
  // The serial reduction visits indices in order, so failures are sorted.
  EXPECT_EQ(report.failures[0].first, 10u);
  EXPECT_EQ(report.failures[1].first, 100u);
  EXPECT_EQ(report.failures[2].first, 200u);
  for (const auto& [index, info] : report.failures) {
    EXPECT_EQ(info.code, FailureCode::kInjected) << "index " << index;
    EXPECT_EQ(info.attempts, sizing::kItemAttempts) << "index " << index;
  }

  // No-fault serial reference over the surviving subset.
  faultinject::disarm_all();
  std::vector<VectorPair> surviving;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    if (i != 10 && i != 100 && i != 200) surviving.push_back(vectors[i]);
  }
  util::ThreadPool serial(1);
  const auto reference = sizing::rank_vectors(eval, surviving, wl, {.pool = &serial});

  ASSERT_EQ(ranked.size(), reference.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].pair.v0, reference[i].pair.v0) << "rank " << i;
    EXPECT_EQ(ranked[i].pair.v1, reference[i].pair.v1) << "rank " << i;
    EXPECT_EQ(ranked[i].delay_cmos, reference[i].delay_cmos) << "rank " << i;
    EXPECT_EQ(ranked[i].delay_mtcmos, reference[i].delay_mtcmos) << "rank " << i;
    EXPECT_EQ(ranked[i].degradation_pct, reference[i].degradation_pct) << "rank " << i;
  }
}

// "Fail vector 37's first solve, succeed on the retry": an exhaustible
// single-hit plan is absorbed by the sweep's per-item retry, the report
// histogram shows the recovery, and the ranking is unchanged.
TEST_F(FaultInject, SweepRetryAbsorbsSingleHitFault) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  const auto vectors = sizing::all_vector_pairs(4);
  const double wl = 10.0;

  util::ThreadPool pool(4);
  faultinject::arm(faultinject::Site::kSweepItem, /*scope=*/37, /*fail_hits=*/1);
  SweepReport report;
  const auto ranked =
      sizing::rank_vectors(eval, vectors, wl, {.pool = &pool, .report = &report});

  EXPECT_EQ(faultinject::injected_count(), 1u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.recovered, 1u);
  EXPECT_EQ(report.succeeded, vectors.size() - 1);
  ASSERT_EQ(report.rung_histogram.size(), 2u);
  EXPECT_EQ(report.rung_histogram[0], vectors.size() - 1);
  EXPECT_EQ(report.rung_histogram[1], 1u);

  faultinject::disarm_all();
  util::ThreadPool serial(1);
  const auto reference = sizing::rank_vectors(eval, vectors, wl, {.pool = &serial});
  ASSERT_EQ(ranked.size(), reference.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].degradation_pct, reference[i].degradation_pct) << "rank " << i;
    EXPECT_EQ(ranked[i].pair.v0, reference[i].pair.v0) << "rank " << i;
  }
}

// A seeded Newton divergence recovers through the ladder: attempt 1 eats
// the single-hit fault, attempt 2 (the backward-Euler rung) succeeds.
TEST_F(FaultInject, RecoveryLadderRecoversSeededNewtonDivergence) {
  spice::Circuit ckt = rc_circuit();
  spice::Engine eng(ckt);

  faultinject::arm(faultinject::Site::kNewtonSolve, faultinject::kAnyScope,
                   /*fail_hits=*/1);
  const auto outcome = spice::run_transient_recovered(eng, rc_options());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_GT(outcome.value->steps, 0u);

  // Driven into a report, the recovery lands on rung 1 of the histogram.
  SweepReport report;
  report.add(0, outcome);
  EXPECT_EQ(report.recovered, 1u);
  ASSERT_EQ(report.rung_histogram.size(), 2u);
  EXPECT_EQ(report.rung_histogram[1], 1u);
}

// The transient step site, fixed-step and adaptive: a one-hit fault
// recovers on the ladder's first rung, and a fault that never stops
// firing fails every rung with the injected code and the step's site.
TEST_F(FaultInject, TransientStepFaultsRecoverOrExhaustTheLadder) {
  const int rungs = static_cast<int>(spice::default_recovery_rungs().size());
  for (const bool adaptive : {false, true}) {
    SCOPED_TRACE(adaptive ? "adaptive" : "fixed-step");
    spice::Circuit ckt = rc_circuit();
    spice::Engine eng(ckt);
    spice::TransientOptions opt = rc_options();
    opt.adaptive = adaptive;
    const auto run = [&](int fail_hits) {
      faultinject::arm(faultinject::Site::kTransientStep, faultinject::kAnyScope, fail_hits);
      auto outcome = spice::run_transient_recovered(eng, opt);
      faultinject::disarm_all();
      return outcome;
    };
    const auto recovered = run(1);
    EXPECT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.attempts, 2);
    const auto exhausted = run(-1);
    ASSERT_FALSE(exhausted.ok());
    EXPECT_EQ(exhausted.failure.code, FailureCode::kInjected);
    EXPECT_EQ(exhausted.failure.site, "Engine::run_transient");
    EXPECT_EQ(exhausted.attempts, 1 + rungs);
  }
}

TEST_F(FaultInject, LadderOffReportsNewtonDiverged) {
  spice::Circuit ckt = rc_circuit();
  spice::Engine eng(ckt);

  faultinject::arm(faultinject::Site::kNewtonSolve, faultinject::kAnyScope,
                   /*fail_hits=*/1);
  const auto outcome =
      spice::run_transient_recovered(eng, rc_options(), spice::RecoveryPolicy::off());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.failure.code, FailureCode::kNewtonDiverged);
  EXPECT_EQ(outcome.failure.site, "Engine::newton_solve");
}

// Injected faults carry each site's natural code: the LU pivot site
// classifies as a singular matrix.
TEST_F(FaultInject, LuSiteClassifiesAsSingularMatrix) {
  spice::Circuit ckt = rc_circuit();
  spice::Engine eng(ckt);
  faultinject::arm(faultinject::Site::kSparseLuFactorize, faultinject::kAnyScope,
                   /*fail_hits=*/1);
  try {
    eng.dc_operating_point();
    FAIL() << "expected an injected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.info().code, FailureCode::kSingularMatrix);
    EXPECT_EQ(e.info().site, "SparseLu::factorize");
  }
}

// A runaway transient degrades to kDeadlineExceeded instead of hanging,
// and the ladder treats that as terminal: escalating the integrator
// cannot buy back an exhausted budget.
TEST_F(FaultInject, RunawayTransientHitsDeadlineWithoutEscalation) {
  spice::Circuit ckt = rc_circuit();
  spice::Engine eng(ckt);
  spice::TransientOptions opt = rc_options();
  opt.tstop = 1.0;  // ~5e11 fixed steps: a runaway by construction
  opt.max_steps = 200;

  try {
    eng.run_transient(opt);
    FAIL() << "expected kDeadlineExceeded";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.info().code, FailureCode::kDeadlineExceeded);
    EXPECT_NE(e.info().context.find("step budget"), std::string::npos);
  }

  const auto outcome = spice::run_transient_recovered(eng, opt);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 1);  // terminal: no ladder escalation
  EXPECT_EQ(outcome.failure.code, FailureCode::kDeadlineExceeded);
}

// The recovery policy's budgets flow into sweeps through TransientOptions
// left at their defaults -- and a deadline inside a fault-isolated sweep
// only loses that item, not the pool.
TEST_F(FaultInject, DeadlineInsideSweepOnlyLosesThatItem) {
  const auto adder = make_ripple_adder(tech07(), 2);
  core::VbsOptions base;
  // Any switching transition needs more than one breakpoint; only the 16
  // identity transitions (v0 == v1) schedule none and stay under budget.
  base.max_breakpoints = 1;
  const VbsBackend eval(adder.netlist, adder_outputs(adder), base);
  const auto vectors = sizing::all_vector_pairs(4);

  util::ThreadPool pool(4);
  SweepReport report;
  const auto ranked =
      sizing::rank_vectors(eval, vectors, 10.0, {.pool = &pool, .report = &report});
  EXPECT_TRUE(ranked.empty());  // survivors never switch -> dropped
  EXPECT_EQ(report.total, 256u);
  EXPECT_EQ(report.failed, 240u);
  EXPECT_EQ(report.succeeded, 16u);
  ASSERT_FALSE(report.failures.empty());
  for (const auto& [index, info] : report.failures) {
    EXPECT_EQ(info.code, FailureCode::kDeadlineExceeded) << "index " << index;
  }
}

}  // namespace
}  // namespace mtcmos
