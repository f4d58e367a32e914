// Parameterized property suites: invariants checked across swept
// parameter grids and seeded random instances.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "circuits/generators.hpp"
#include "core/vbs.hpp"
#include "core/vx_solver.hpp"
#include "models/level1.hpp"
#include "models/sleep_transistor.hpp"
#include "models/technology.hpp"
#include "netlist/bits.hpp"
#include "netlist/expand.hpp"
#include "netlist/io.hpp"
#include "spice/engine.hpp"
#include "util/rng.hpp"
#include "util/sparse_lu.hpp"
#include "util/units.hpp"
#include "dense_matrix.hpp"

namespace mtcmos {
namespace {

using netlist::bits_from_uint;
using netlist::concat_bits;
using units::fF;

// ---------------------------------------------------------------------------
// Vx solver: Eq. 5 must hold across (R, beta_total, alpha, body-effect).

class VxSolverProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double, bool>> {};

TEST_P(VxSolverProperty, SatisfiesEquationAndBounds) {
  const auto [r, beta, alpha, body] = GetParam();
  const Technology t = tech07();
  const core::VxSolution sol = core::solve_vx(r, t.vdd, t.nmos_low, beta, body, alpha);

  EXPECT_GE(sol.vx, 0.0);
  EXPECT_GE(sol.gate_drive, 0.0);
  EXPECT_LE(sol.vx + sol.gate_drive + sol.vtn, t.vdd + 1e-9);
  EXPECT_GE(sol.vtn, t.nmos_low.vt0 - 1e-12);  // body effect only raises Vt

  if (r > 0.0 && beta > 0.0) {
    // Residual of Eq. 5 (generalized current law).
    const double i = 0.5 * beta * std::pow(sol.gate_drive, alpha);
    EXPECT_NEAR(sol.vx / r, i, 1e-6 * std::max(i, 1e-12));
    EXPECT_NEAR(sol.total_current, i, 1e-9 * std::max(i, 1e-12));
  } else {
    EXPECT_DOUBLE_EQ(sol.vx, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VxSolverProperty,
    ::testing::Combine(::testing::Values(0.0, 100.0, 1000.0, 10000.0),
                       ::testing::Values(1e-5, 1e-4, 1e-3, 1e-2),
                       ::testing::Values(1.0, 1.3, 1.7, 2.0),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Level-1 model: derivative consistency (analytic gm/gds/gmbs vs finite
// differences) across operating regions.

class Level1DerivativeProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(Level1DerivativeProperty, AnalyticDerivativesMatchFiniteDifference) {
  const auto [vgs, vds, vbs] = GetParam();
  const MosParams p = tech07().nmos_low;
  const double w = 2.1e-6, l = 0.7e-6;
  const double h = 1e-7;

  const MosEval e = mos_level1_eval(p, w, l, vgs, vds, vbs);
  EXPECT_GE(e.id, 0.0);
  EXPECT_GE(e.gds, 0.0);

  const double gm_fd = (mos_level1_eval(p, w, l, vgs + h, vds, vbs).id -
                        mos_level1_eval(p, w, l, vgs - h, vds, vbs).id) /
                       (2.0 * h);
  const double gds_fd = (mos_level1_eval(p, w, l, vgs, vds + h, vbs).id -
                         mos_level1_eval(p, w, l, vgs, vds - h, vbs).id) /
                        (2.0 * h);
  const double gmbs_fd = (mos_level1_eval(p, w, l, vgs, vds, vbs + h).id -
                          mos_level1_eval(p, w, l, vgs, vds, vbs - h).id) /
                         (2.0 * h);
  // The model has region-boundary kinks; the chosen grid stays off the
  // exact boundaries, where the analytic derivatives must match closely.
  const double tol = 1e-3 * std::max({std::abs(e.gm), std::abs(e.gds), 1e-9});
  EXPECT_NEAR(e.gm, gm_fd, tol) << "vgs=" << vgs << " vds=" << vds;
  EXPECT_NEAR(e.gds, gds_fd, tol) << "vgs=" << vgs << " vds=" << vds;
  EXPECT_NEAR(e.gmbs, gmbs_fd, 2e-3 * std::max(std::abs(e.gmbs), 1e-9))
      << "vgs=" << vgs << " vds=" << vds;
}

INSTANTIATE_TEST_SUITE_P(Regions, Level1DerivativeProperty,
                         ::testing::Combine(::testing::Values(0.1, 0.6, 0.9, 1.2),
                                            ::testing::Values(0.05, 0.3, 0.8, 1.2),
                                            ::testing::Values(0.0, -0.2, -0.5)));

// ---------------------------------------------------------------------------
// VBS: structural delay properties per workload.

enum class Workload { kChain, kTree, kAdder };

class VbsDelayProperty : public ::testing::TestWithParam<Workload> {
 protected:
  struct Setup {
    netlist::Netlist nl;
    std::vector<std::string> outputs;
    std::vector<bool> v0, v1;
  };
  static Setup make(Workload w) {
    switch (w) {
      case Workload::kChain: {
        auto c = circuits::make_inverter_chain(tech07(), 5);
        std::vector<std::string> outs = {c.netlist.net_name(c.outputs.back())};
        return {std::move(c.netlist), std::move(outs), {false}, {true}};
      }
      case Workload::kTree: {
        auto t = circuits::make_inverter_tree(tech07());
        std::vector<std::string> outs = {t.netlist.net_name(t.leaves[0])};
        return {std::move(t.netlist), std::move(outs), {false}, {true}};
      }
      case Workload::kAdder: {
        auto a = circuits::make_ripple_adder(tech07(), 3);
        std::vector<std::string> outs;
        for (const auto s : a.sum) outs.push_back(a.netlist.net_name(s));
        return {std::move(a.netlist), std::move(outs),
                concat_bits(bits_from_uint(0, 3), bits_from_uint(0, 3)),
                concat_bits(bits_from_uint(7, 3), bits_from_uint(1, 3))};
      }
    }
    throw std::logic_error("unreachable");
  }
};

TEST_P(VbsDelayProperty, DelayMonotoneDecreasingInWl) {
  const Setup s = make(GetParam());
  double prev = 1e9;
  for (double wl : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    core::VbsOptions opt;
    opt.sleep_resistance = SleepTransistor(tech07(), wl).reff();
    const double d = core::VbsSimulator(s.nl, opt).critical_delay(s.v0, s.v1, s.outputs);
    ASSERT_GT(d, 0.0) << "wl=" << wl;
    EXPECT_LT(d, prev) << "wl=" << wl;
    prev = d;
  }
}

TEST_P(VbsDelayProperty, MtcmosNeverFasterThanCmos) {
  const Setup s = make(GetParam());
  core::VbsOptions cmos;
  const double d0 = core::VbsSimulator(s.nl, cmos).critical_delay(s.v0, s.v1, s.outputs);
  for (double wl : {3.0, 10.0, 50.0}) {
    core::VbsOptions opt;
    opt.sleep_resistance = SleepTransistor(tech07(), wl).reff();
    const double d = core::VbsSimulator(s.nl, opt).critical_delay(s.v0, s.v1, s.outputs);
    EXPECT_GE(d, d0 * (1.0 - 1e-9)) << "wl=" << wl;
  }
}

TEST_P(VbsDelayProperty, BodyEffectOnlySlowsDischarge) {
  const Setup s = make(GetParam());
  core::VbsOptions plain;
  plain.sleep_resistance = SleepTransistor(tech07(), 6.0).reff();
  core::VbsOptions body = plain;
  body.body_effect = true;
  const double d_plain = core::VbsSimulator(s.nl, plain).critical_delay(s.v0, s.v1, s.outputs);
  const double d_body = core::VbsSimulator(s.nl, body).critical_delay(s.v0, s.v1, s.outputs);
  EXPECT_GE(d_body, d_plain * (1.0 - 1e-9));
}

TEST_P(VbsDelayProperty, ReverseRunReturnsToInitialLevels) {
  // Running v0->v1 then v1->v0 must land every output back on its v0 rail.
  const Setup s = make(GetParam());
  core::VbsOptions opt;
  opt.sleep_resistance = SleepTransistor(tech07(), 8.0).reff();
  const core::VbsSimulator sim(s.nl, opt);
  const auto levels0 = s.nl.evaluate(s.v0);
  const auto res = sim.run(s.v1, s.v0);
  const double vdd = s.nl.tech().vdd;
  for (int g = 0; g < s.nl.gate_count(); ++g) {
    const auto& w = res.outputs.get(s.nl.net_name(s.nl.gate(g).output));
    const bool high = w.last_value() > 0.5 * vdd;
    EXPECT_EQ(high, levels0[static_cast<std::size_t>(s.nl.gate(g).output)])
        << s.nl.gate(g).name;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, VbsDelayProperty,
                         ::testing::Values(Workload::kChain, Workload::kTree, Workload::kAdder));

// ---------------------------------------------------------------------------
// Functional fuzz: random transitions settle to boolean-correct levels in
// the switch-level simulator (4-bit adder).

class AdderFuzzProperty : public ::testing::TestWithParam<int> {};

TEST_P(AdderFuzzProperty, VbsFinalLevelsMatchBooleanEvaluation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto adder = circuits::make_ripple_adder(tech07(), 4);
  core::VbsOptions opt;
  opt.sleep_resistance = SleepTransistor(tech07(), rng.uniform_real(4.0, 40.0)).reff();
  const core::VbsSimulator sim(adder.netlist, opt);
  const double vdd = tech07().vdd;
  for (int round = 0; round < 10; ++round) {
    const auto v0 = bits_from_uint(rng.uniform_int(0, 255), 8);
    const auto v1 = bits_from_uint(rng.uniform_int(0, 255), 8);
    const auto res = sim.run(v0, v1);
    const auto expect = adder.netlist.evaluate(v1);
    for (const auto out : adder.sum) {
      const auto& w = res.outputs.get(adder.netlist.net_name(out));
      EXPECT_EQ(w.last_value() > 0.5 * vdd, expect[static_cast<std::size_t>(out)])
          << "seed=" << GetParam() << " round=" << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdderFuzzProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Extension-combination fuzz: every combination of model extensions (and
// random sleep domains) must still settle the adder to boolean-correct
// levels with finite bookkeeping.

class VbsExtensionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(VbsExtensionFuzz, AllExtensionCombinationsSettleCorrectly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  const int n_gates = adder.netlist.gate_count();

  core::VbsOptions opt;
  opt.body_effect = rng.coin();
  opt.reverse_conduction = rng.coin();
  opt.virtual_ground_cap = rng.coin() ? rng.uniform_real(10e-15, 2e-12) : 0.0;
  opt.alpha = rng.coin() ? rng.uniform_real(1.2, 2.0) : 2.0;
  opt.input_slope_factor = rng.coin() ? rng.uniform_real(0.05, 0.5) : 0.0;
  const int n_dom = static_cast<int>(rng.uniform_int(1, 3));
  std::vector<int> domains(static_cast<std::size_t>(n_gates));
  for (int& d : domains) d = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n_dom - 1)));
  std::vector<double> rs(static_cast<std::size_t>(n_dom));
  for (double& r : rs) r = rng.uniform_real(200.0, 4000.0);

  const core::VbsSimulator sim(adder.netlist, opt, domains, rs);
  const double vdd = tech07().vdd;
  for (int round = 0; round < 4; ++round) {
    const auto v0 = bits_from_uint(rng.uniform_int(0, 63), 6);
    const auto v1 = bits_from_uint(rng.uniform_int(0, 63), 6);
    const auto res = sim.run(v0, v1);
    EXPECT_LT(res.finish_time, 1e-6);
    EXPECT_GE(res.vx_peak, 0.0);
    EXPECT_LT(res.vx_peak, vdd);
    const auto expect = adder.netlist.evaluate(v1);
    for (const auto out : adder.sum) {
      const auto& w = res.outputs.get(adder.netlist.net_name(out));
      EXPECT_EQ(w.last_value() > 0.5 * vdd, expect[static_cast<std::size_t>(out)])
          << "seed=" << GetParam() << " round=" << round << " body=" << opt.body_effect
          << " rev=" << opt.reverse_conduction << " cx=" << opt.virtual_ground_cap
          << " alpha=" << opt.alpha << " slope=" << opt.input_slope_factor
          << " domains=" << n_dom;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VbsExtensionFuzz, ::testing::Range(1, 17));

// ---------------------------------------------------------------------------
// Sparse LU vs dense LU on random diagonally dominant systems.

class SparseLuProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SparseLuProperty, MatchesDenseSolver) {
  const auto [n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  SparseLu lu;
  DenseMatrix dense(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  std::vector<std::pair<int, int>> offdiag;
  for (int i = 0; i < n; ++i) {
    lu.reserve_entry(i, i);
    const int fanout = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < fanout; ++k) {
      const int j = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n - 1)));
      if (j == i) continue;
      offdiag.emplace_back(i, j);
      lu.reserve_entry(i, j);
      lu.reserve_entry(j, i);
    }
  }
  lu.finalize(n);
  lu.clear_values();
  for (int i = 0; i < n; ++i) {
    lu.add(lu.slot(i, i), 0.5);
    dense.at(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += 0.5;
  }
  for (const auto& [i, j] : offdiag) {
    const double g = rng.uniform_real(0.1, 2.0);
    lu.add(lu.slot(i, j), -g);
    lu.add(lu.slot(j, i), -g);
    lu.add(lu.slot(i, i), g);
    lu.add(lu.slot(j, j), g);
    dense.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) -= g;
    dense.at(static_cast<std::size_t>(j), static_cast<std::size_t>(i)) -= g;
    dense.at(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += g;
    dense.at(static_cast<std::size_t>(j), static_cast<std::size_t>(j)) += g;
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& x : b) x = rng.uniform_real(-1.0, 1.0);
  lu.factorize();
  const auto xs = lu.solve(b);
  const auto xd = dense.solve(b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(xs[static_cast<std::size_t>(i)], xd[static_cast<std::size_t>(i)], 1e-8)
        << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, SparseLuProperty,
                         ::testing::Combine(::testing::Values(5, 20, 60, 150),
                                            ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Pwl: integral additivity and crossing consistency on random waveforms.

class PwlProperty : public ::testing::TestWithParam<int> {};

TEST_P(PwlProperty, IntegralIsAdditiveAndCrossingsConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Pwl w;
  double t = 0.0;
  for (int i = 0; i < 30; ++i) {
    w.append(t, rng.uniform_real(-1.0, 2.0));
    t += rng.uniform_real(0.01, 1.0);
  }
  const double t0 = w.first_time(), t1 = w.last_time();
  const double tm = 0.5 * (t0 + t1);
  EXPECT_NEAR(w.integral(t0, t1), w.integral(t0, tm) + w.integral(tm, t1),
              1e-9 * (1.0 + std::abs(w.integral(t0, t1))));
  // Every reported crossing must actually sit on the level.
  for (double level : {0.0, 0.5, 1.0}) {
    const auto c = w.crossing(level, Edge::kAny);
    if (c) {
      EXPECT_NEAR(w.sample(*c), level, 1e-9);
    }
    const auto lc = w.last_crossing(level, Edge::kAny);
    if (lc) {
      EXPECT_NEAR(w.sample(*lc), level, 1e-9);
    }
    if (c && lc) {
      EXPECT_LE(*c, *lc + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PwlProperty, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Random netlists: .mtn round trip preserves function; transistor DC
// agrees with boolean evaluation.

netlist::Netlist random_netlist(Rng& rng, int n_inputs, int n_gates) {
  netlist::Netlist nl(tech07());
  std::vector<netlist::NetId> nets;
  for (int i = 0; i < n_inputs; ++i) {
    nets.push_back(nl.add_input(std::string("in").append(std::to_string(i))));
  }
  for (int g = 0; g < n_gates; ++g) {
    const std::string name = std::string("g").append(std::to_string(g));
    auto pick = [&] {
      return nets[static_cast<std::size_t>(rng.uniform_int(0, nets.size() - 1))];
    };
    netlist::NetId out = -1;
    switch (rng.uniform_int(0, 5)) {
      case 0:
        out = nl.add_inv(name, pick());
        break;
      case 1:
        out = nl.add_nand2(name, pick(), pick());
        break;
      case 2:
        out = nl.add_nor2(name, pick(), pick());
        break;
      case 3:
        out = nl.add_aoi21(name, pick(), pick(), pick());
        break;
      case 4:
        out = nl.add_oai21(name, pick(), pick(), pick());
        break;
      default:
        out = nl.add_nand3(name, pick(), pick(), pick());
        break;
    }
    nets.push_back(out);
    if (rng.coin()) nl.add_load(out, rng.uniform_real(5.0, 60.0) * fF);
  }
  return nl;
}

class RandomNetlistProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetlistProperty, IoRoundTripPreservesFunction) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const netlist::Netlist nl = random_netlist(rng, 4, 12);
  std::ostringstream os;
  netlist::write_netlist(os, nl);
  std::istringstream in(os.str());
  const auto round = netlist::read_netlist(in);
  ASSERT_EQ(round.nl.gate_count(), nl.gate_count());
  for (int v = 0; v < 16; ++v) {
    const auto bits = bits_from_uint(static_cast<std::uint64_t>(v), 4);
    const auto a = nl.evaluate(bits);
    const auto b = round.nl.evaluate(bits);
    for (int g = 0; g < nl.gate_count(); ++g) {
      const auto net = nl.gate(g).output;
      EXPECT_EQ(a[static_cast<std::size_t>(net)],
                b[static_cast<std::size_t>(*round.nl.find_net(nl.net_name(net)))])
          << "gate " << nl.gate(g).name << " v=" << v;
    }
  }
}

TEST_P(RandomNetlistProperty, TransistorDcMatchesBooleanEvaluation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const netlist::Netlist nl = random_netlist(rng, 3, 8);
  netlist::ExpandOptions opt;
  opt.sleep_wl = 25.0;
  for (int v = 0; v < 8; ++v) {
    const auto bits = bits_from_uint(static_cast<std::uint64_t>(v), 3);
    auto ex = netlist::to_spice(nl, opt, bits, bits);
    spice::Engine eng(ex.circuit);
    const auto volts = eng.dc_operating_point(1.0);
    const auto logic = nl.evaluate(bits);
    const double vdd = nl.tech().vdd;
    for (int g = 0; g < nl.gate_count(); ++g) {
      const auto net = nl.gate(g).output;
      const double vn =
          volts[static_cast<std::size_t>(*ex.circuit.find_node(nl.net_name(net)))];
      EXPECT_EQ(vn > 0.5 * vdd, logic[static_cast<std::size_t>(net)])
          << "gate " << nl.gate(g).name << " v=" << v << " vn=" << vn;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistProperty, ::testing::Range(1, 7));

}  // namespace
}  // namespace mtcmos
