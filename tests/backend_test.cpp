// Tests for the backend-agnostic evaluation layer (sizing/backend.hpp,
// sizing/session.hpp): cross-backend consistency through one interface,
// sweeps on the SPICE backend, verify_sizing round trips under injected
// SPICE faults, bounded caches, and thread-safe SpiceBackend
// sharing.  Labeled `backend` (and `tsan`, for the concurrency tests) so
// sanitizer builds can target them with `ctest -L backend`.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "sizing/sizing.hpp"
#include "util/faultinject.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace mtcmos {
namespace {

using circuits::make_inverter_tree;
using circuits::make_ripple_adder;
using sizing::EvalBackend;
using sizing::EvalCacheLimits;
using sizing::EvalSession;
using sizing::SpiceBackend;
using sizing::SpiceBackendOptions;
using sizing::VbsBackend;
using sizing::VectorPair;
using units::ns;

// Every test disarms on exit so a failing assertion cannot leak an armed
// plan into the rest of the suite.
class Backend : public ::testing::Test {
 protected:
  void TearDown() override { faultinject::disarm_all(); }
};

std::vector<std::string> adder_outputs(const circuits::RippleAdder& adder) {
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  return outs;
}

/// Two-inverter chain: the cheapest circuit the transistor-level engine
/// can measure, for tests that need many SPICE runs.
circuits::InverterTree make_chain() {
  circuits::InverterTreeOptions opt;
  opt.fanout = 1;
  opt.stages = 2;
  return make_inverter_tree(tech07(), opt);
}

// --- Cross-backend consistency ---

TEST_F(Backend, VbsAndSpiceAgreeOnInverterTreeThroughOneInterface) {
  // Paper Fig. 10 band: both fidelities answer the same delay question
  // within 2x, asked through the identical EvalBackend calls.
  const auto tree = make_inverter_tree(tech07());
  const std::string leaf = tree.netlist.net_name(tree.leaves[0]);
  const VectorPair vp{{false}, {true}};

  const VbsBackend vbs(tree.netlist, {leaf});
  SpiceBackendOptions sopt;
  sopt.tstop = 12.0 * ns;
  const SpiceBackend spice(tree.netlist, {leaf}, sopt);
  const EvalBackend* backends[] = {&vbs, &spice};
  for (const EvalBackend* b : backends) {
    EXPECT_GT(b->delay_at_wl(vp, 8.0), 0.0) << b->name();
    EXPECT_GT(b->delay_baseline(vp), 0.0) << b->name();
  }
  for (const double wl : {5.0, 8.0, 20.0}) {
    const double ratio = vbs.delay_at_wl(vp, wl) / spice.delay_at_wl(vp, wl);
    EXPECT_GT(ratio, 0.4) << "wl=" << wl;
    EXPECT_LT(ratio, 2.2) << "wl=" << wl;
  }
}

TEST_F(Backend, RankVectorsRunsOnSpiceBackend) {
  // The same sweep code drives the transistor-level engine: a handful of
  // adder vectors ranked by SPICE-measured degradation.
  const auto adder = make_ripple_adder(tech07(), 2);
  SpiceBackendOptions sopt;
  sopt.tstop = 12.0 * ns;
  const SpiceBackend spice(adder.netlist, adder_outputs(adder), sopt);
  const std::vector<VectorPair> vectors = {
      {{false, false, false, false}, {true, true, true, true}},
      {{false, false, false, false}, {true, false, true, false}},
      {{true, true, false, false}, {false, false, true, true}},
  };
  const auto ranked = sizing::rank_vectors(spice, vectors, 10.0);
  ASSERT_FALSE(ranked.empty());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_GT(ranked[i].delay_cmos, 0.0) << i;
    EXPECT_GT(ranked[i].delay_mtcmos, 0.0) << i;
    if (i + 1 < ranked.size()) {
      EXPECT_GE(ranked[i].degradation_pct, ranked[i + 1].degradation_pct) << i;
    }
  }
}

// --- verify_sizing ---

TEST_F(Backend, VerifySizingRoundTripsOnTheReferenceBackend) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const auto outs = adder_outputs(adder);
  const VbsBackend vbs(adder.netlist, outs);
  const auto vectors = sizing::all_vector_pairs(4);
  const auto sized = sizing::size_for_degradation(vbs, vectors, 5.0);

  SpiceBackendOptions sopt;
  sopt.tstop = 12.0 * ns;
  const SpiceBackend spice(adder.netlist, outs, sopt);
  const auto vr = sizing::verify_sizing(vbs, spice, sized, 5.0);
  ASSERT_TRUE(vr.ok) << vr.failure.message();
  EXPECT_EQ(vr.wl, sized.wl);
  // The fast re-measurement hits the same memoized evaluations the sizing
  // itself used, so it reproduces the achieved degradation exactly.
  EXPECT_EQ(vr.fast_degradation_pct, sized.degradation_pct);
  EXPECT_GT(vr.reference_delay, 0.0);
  EXPECT_GT(vr.reference_baseline_delay, 0.0);
  EXPECT_GT(vr.reference_degradation_pct, -50.0);
  EXPECT_LT(vr.reference_degradation_pct, 100.0);
  EXPECT_EQ(vr.delta_pct, vr.reference_degradation_pct - vr.fast_degradation_pct);
}

TEST_F(Backend, VerifySizingReportsHardSpiceFaultInsteadOfThrowing) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const auto outs = adder_outputs(adder);
  const VbsBackend vbs(adder.netlist, outs);
  const auto vectors = sizing::all_vector_pairs(4);
  const auto sized = sizing::size_for_degradation(vbs, vectors, 5.0);

  SpiceBackendOptions sopt;
  sopt.tstop = 12.0 * ns;
  const SpiceBackend spice(adder.netlist, outs, sopt);
  // Every Newton solve fails: the recovery ladder, the per-item retries,
  // and finally verify_sizing's failure report all engage.
  faultinject::arm(faultinject::Site::kNewtonSolve, faultinject::kAnyScope, /*fail_hits=*/-1);
  SweepReport report;
  EvalSession session;
  session.report = &report;
  const auto vr = sizing::verify_sizing(vbs, spice, sized, 5.0, session);
  EXPECT_FALSE(vr.ok);
  EXPECT_FALSE(vr.failure.message().empty());
  // The fast (switch-level) probes are untouched by the SPICE fault.
  EXPECT_EQ(vr.fast_degradation_pct, sized.degradation_pct);
  EXPECT_EQ(report.failed, 2u);  // reference baseline + reference at-W/L
}

TEST_F(Backend, SpiceRecoveryLadderAbsorbsTransientFault) {
  const auto chain = make_chain();
  const std::string leaf = chain.netlist.net_name(chain.leaves[0]);
  SpiceBackendOptions sopt;
  sopt.tstop = 8.0 * ns;
  const SpiceBackend spice(chain.netlist, {leaf}, sopt);
  // One injected Newton failure: attempt 1 dies, the ladder's first rung
  // re-runs the transient clean.
  faultinject::arm(faultinject::Site::kNewtonSolve, faultinject::kAnyScope, /*fail_hits=*/1);
  const auto r = spice.measure_at_wl({{false}, {true}}, 10.0);
  ASSERT_TRUE(r.ok()) << r.failure.message();
  EXPECT_GT(r.attempts, 1);
  EXPECT_GT(r.delay, 0.0);
}

TEST_F(Backend, SpiceRefMeasureCarriesFailureInfo) {
  const auto chain = make_chain();
  const std::string leaf = chain.netlist.net_name(chain.leaves[0]);
  sizing::SpiceRefOptions opt;
  opt.expand.sleep_wl = 10.0;
  opt.tstop = 8.0 * ns;
  sizing::SpiceRef ref(chain.netlist, {leaf}, opt);
  const VectorPair vp{{false}, {true}};

  faultinject::arm(faultinject::Site::kNewtonSolve, faultinject::kAnyScope, /*fail_hits=*/-1);
  const auto failed = ref.measure(vp);
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(failed.failed);
  EXPECT_EQ(failed.failure.code, FailureCode::kNewtonDiverged);
  EXPECT_LT(failed.delay, 0.0);  // measurement fields stay at defaults

  faultinject::disarm_all();
  const auto recovered = ref.measure(vp);
  ASSERT_TRUE(recovered.ok()) << recovered.failure.message();
  EXPECT_GT(recovered.delay, 0.0);
}

// --- Cache bounding ---

TEST_F(Backend, VbsCachesAreBoundedAndEvictionIsLossless) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const auto outs = adder_outputs(adder);
  const VbsBackend unbounded(adder.netlist, outs);
  EvalCacheLimits limits;
  limits.max_simulators = 2;
  limits.max_baseline_delays = 3;
  const VbsBackend bounded(adder.netlist, outs, {}, limits);

  const std::vector<double> wls = {4.0, 8.0, 16.0, 32.0, 64.0};
  std::vector<VectorPair> vps;
  for (std::uint64_t v = 1; v <= 6; ++v) {
    vps.push_back({{false, false, false, false},
                   {(v & 1) != 0, (v & 2) != 0, (v & 4) != 0, true}});
  }
  // Two passes so the bounded backend revisits evicted entries.
  for (int pass = 0; pass < 2; ++pass) {
    for (const double wl : wls) {
      for (const auto& vp : vps) {
        EXPECT_EQ(bounded.delay_at_wl(vp, wl), unbounded.delay_at_wl(vp, wl));
        EXPECT_EQ(bounded.delay_baseline(vp), unbounded.delay_baseline(vp));
      }
    }
  }
  const auto stats = bounded.cache_stats();
  EXPECT_LE(stats.sim_entries, 2u);
  EXPECT_EQ(stats.sim_capacity, 2u);
  EXPECT_GT(stats.sim_evictions, 0u);
  EXPECT_LE(stats.baseline_entries, 3u);
  EXPECT_GT(stats.baseline_evictions, 0u);
  EXPECT_GT(stats.sim_hits + stats.sim_misses, 0u);
  const auto unbounded_stats = unbounded.cache_stats();
  EXPECT_EQ(unbounded_stats.sim_entries, wls.size());
  EXPECT_EQ(unbounded_stats.sim_evictions, 0u);
}

TEST_F(Backend, BaselineMemoKeepsTransitionsWiderThanOneWordApart) {
  // The baseline memo packs a transition into 64-bit words: two 67-input
  // transitions that differ only at input 66 get their own entries and
  // their own delays, on the batch path and the scalar path alike.
  const auto adder = make_ripple_adder(tech07(), 33);
  const auto outs = adder_outputs(adder);
  const std::size_t n_in = adder.netlist.inputs().size();
  ASSERT_GT(n_in, 64u);
  const VectorPair a{std::vector<bool>(n_in, false), std::vector<bool>(n_in, true)};
  VectorPair b = a;
  b.v1[n_in - 1] = false;
  const double da = VbsBackend(adder.netlist, outs).delay_baseline(a);
  const double db = VbsBackend(adder.netlist, outs).delay_baseline(b);
  ASSERT_NE(da, db);

  const VbsBackend batched(adder.netlist, outs);
  const VectorPair* vps[] = {&a, &b};
  for (int pass = 0; pass < 2; ++pass) {
    Outcome<double> out[2];
    batched.delay_baseline_batch(vps, 2, out);
    ASSERT_TRUE(out[0].ok() && out[1].ok());
    EXPECT_EQ(*out[0].value, da) << pass;
    EXPECT_EQ(*out[1].value, db) << pass;
  }
  EXPECT_EQ(batched.cache_stats().baseline_entries, 2u);
  EXPECT_EQ(batched.cache_stats().baseline_hits, 2u);

  const VbsBackend scalar(adder.netlist, outs);
  EXPECT_EQ(scalar.delay_baseline(b), db);
  EXPECT_EQ(scalar.delay_baseline(a), da);
  EXPECT_EQ(scalar.delay_baseline(b), db);
  EXPECT_EQ(scalar.cache_stats().baseline_entries, 2u);
  EXPECT_EQ(scalar.cache_stats().baseline_hits, 1u);
}

TEST_F(Backend, SpiceBaselineMemoIsBoundedAndEvictionIsLossless) {
  const auto chain = make_chain();
  const std::string leaf = chain.netlist.net_name(chain.leaves[0]);
  SpiceBackendOptions sopt;
  sopt.tstop = 8.0 * ns;
  const SpiceBackend unbounded(chain.netlist, {leaf}, sopt);
  sopt.max_baseline_delays = 1;
  const SpiceBackend bounded(chain.netlist, {leaf}, sopt);
  const VectorPair rise{{false}, {true}};
  const VectorPair fall{{true}, {false}};
  const double d_rise = unbounded.delay_baseline(rise);
  const double d_fall = unbounded.delay_baseline(fall);
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(bounded.delay_baseline(rise), d_rise) << pass;
    EXPECT_EQ(bounded.delay_baseline(fall), d_fall) << pass;
  }
  EXPECT_EQ(bounded.delay_baseline(fall), d_fall);  // the one entry kept
  const auto stats = bounded.cache_stats();
  EXPECT_EQ(stats.baseline_capacity, 1u);
  EXPECT_EQ(stats.baseline_entries, 1u);
  EXPECT_EQ(stats.baseline_evictions, 3u);
  EXPECT_EQ(stats.baseline_hits, 1u);
  EXPECT_EQ(stats.baseline_misses, 4u);
  EXPECT_EQ(unbounded.cache_stats().baseline_entries, 2u);
}

TEST_F(Backend, SpiceEngineCacheIsBounded) {
  const auto chain = make_chain();
  const std::string leaf = chain.netlist.net_name(chain.leaves[0]);
  SpiceBackendOptions sopt;
  sopt.tstop = 8.0 * ns;
  sopt.max_engines = 1;
  const SpiceBackend spice(chain.netlist, {leaf}, sopt);
  const VectorPair vp{{false}, {true}};
  EXPECT_GT(spice.delay_at_wl(vp, 5.0), 0.0);
  EXPECT_GT(spice.delay_at_wl(vp, 20.0), 0.0);
  EXPECT_GT(spice.delay_at_wl(vp, 5.0), 0.0);  // rebuilt after eviction
  const auto stats = spice.cache_stats();
  EXPECT_LE(stats.sim_entries, 1u);
  EXPECT_GE(stats.sim_evictions, 2u);
}

// --- Concurrency (tsan targets) ---

TEST_F(Backend, SpiceBackendIsSafeToShareAcrossThreads) {
  const auto chain = make_chain();
  const std::string leaf = chain.netlist.net_name(chain.leaves[0]);
  SpiceBackendOptions sopt;
  sopt.tstop = 8.0 * ns;
  sopt.max_engines = 2;
  const SpiceBackend spice(chain.netlist, {leaf}, sopt);
  const VectorPair vp{{false}, {true}};
  const std::vector<double> wls = {5.0, 20.0};

  util::ThreadPool pool(4);
  const std::vector<double> delays = pool.parallel_map(12, [&](std::size_t i) {
    (void)spice.cache_stats();  // concurrent stats reads must be clean too
    return spice.delay_at_wl(vp, wls[i % wls.size()]);
  });
  for (std::size_t i = 0; i < delays.size(); ++i) {
    EXPECT_GT(delays[i], 0.0) << i;
    // Same W/L, same vector => identical delay regardless of which thread
    // or engine entry served it.
    EXPECT_EQ(delays[i], delays[i % wls.size()]) << i;
  }
}

TEST_F(Backend, VbsBackendEvictionIsSafeUnderConcurrency) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const auto outs = adder_outputs(adder);
  EvalCacheLimits limits;
  limits.max_simulators = 2;  // force constant eviction across 4 live W/Ls
  const VbsBackend bounded(adder.netlist, outs, {}, limits);
  const VbsBackend reference(adder.netlist, outs);
  const std::vector<double> wls = {4.0, 8.0, 16.0, 32.0};
  const VectorPair vp{{false, false, false, false}, {true, true, true, true}};
  std::vector<double> expected;
  for (const double wl : wls) expected.push_back(reference.delay_at_wl(vp, wl));

  util::ThreadPool pool(4);
  const std::vector<double> delays = pool.parallel_map(64, [&](std::size_t i) {
    return bounded.delay_at_wl(vp, wls[i % wls.size()]);
  });
  for (std::size_t i = 0; i < delays.size(); ++i) {
    EXPECT_EQ(delays[i], expected[i % wls.size()]) << i;
  }
  EXPECT_LE(bounded.cache_stats().sim_entries, 2u);
}

}  // namespace
}  // namespace mtcmos
