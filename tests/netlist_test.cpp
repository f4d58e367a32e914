// Tests for the gate-level netlist: SpExpr algebra, cell helpers, logic
// evaluation, equivalent-inverter reduction, and transistor expansion.

#include <gtest/gtest.h>

#include "models/technology.hpp"
#include "netlist/bits.hpp"
#include "netlist/expand.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sp_expr.hpp"
#include "spice/engine.hpp"
#include "util/units.hpp"
#include "waveform/measure.hpp"

namespace mtcmos::netlist {
namespace {

using mtcmos::units::fF;
using mtcmos::units::ns;
using mtcmos::units::ps;

// --- SpExpr ---

TEST(SpExpr, InputConducts) {
  const SpExpr e = SpExpr::input(0);
  EXPECT_TRUE(e.conducts({true}));
  EXPECT_FALSE(e.conducts({false}));
  EXPECT_EQ(e.max_depth(), 1);
  EXPECT_EQ(e.transistor_count(), 1);
  EXPECT_EQ(e.top_adjacency(), 1);
}

TEST(SpExpr, SeriesIsAnd) {
  const SpExpr e = SpExpr::series({SpExpr::input(0), SpExpr::input(1)});
  EXPECT_TRUE(e.conducts({true, true}));
  EXPECT_FALSE(e.conducts({true, false}));
  EXPECT_FALSE(e.conducts({false, true}));
  EXPECT_EQ(e.max_depth(), 2);
  EXPECT_EQ(e.top_adjacency(), 1);
}

TEST(SpExpr, ParallelIsOr) {
  const SpExpr e = SpExpr::parallel({SpExpr::input(0), SpExpr::input(1)});
  EXPECT_TRUE(e.conducts({true, false}));
  EXPECT_TRUE(e.conducts({false, true}));
  EXPECT_FALSE(e.conducts({false, false}));
  EXPECT_EQ(e.max_depth(), 1);
  EXPECT_EQ(e.top_adjacency(), 2);
}

TEST(SpExpr, DualSwapsSeriesParallel) {
  const SpExpr e = SpExpr::series({SpExpr::input(0), SpExpr::input(1)});
  const SpExpr d = e.dual();
  // Dual of AND-conduction is OR-conduction over the same literals.
  EXPECT_TRUE(d.conducts({true, false}));
  EXPECT_EQ(d.max_depth(), 1);
  EXPECT_EQ(d.transistor_count(), 2);
}

TEST(SpExpr, DualIsInvolution) {
  const SpExpr e = SpExpr::parallel(
      {SpExpr::series({SpExpr::input(0), SpExpr::input(1)}),
       SpExpr::series({SpExpr::parallel({SpExpr::input(0), SpExpr::input(1)}), SpExpr::input(2)})});
  const SpExpr dd = e.dual().dual();
  for (int v = 0; v < 8; ++v) {
    const std::vector<bool> pins = {(v & 1) != 0, (v & 2) != 0, (v & 4) != 0};
    EXPECT_EQ(e.conducts(pins), dd.conducts(pins)) << "v=" << v;
  }
}

TEST(SpExpr, DeMorganDuality) {
  // For a series-parallel network, NOT(dual conducts on inputs) ==
  // (original conducts on complemented inputs).
  const SpExpr e = SpExpr::parallel(
      {SpExpr::series({SpExpr::input(0), SpExpr::input(1)}), SpExpr::input(2)});
  const SpExpr d = e.dual();
  for (int v = 0; v < 8; ++v) {
    const std::vector<bool> pins = {(v & 1) != 0, (v & 2) != 0, (v & 4) != 0};
    const std::vector<bool> inv = {!pins[0], !pins[1], !pins[2]};
    EXPECT_EQ(!d.conducts(pins), e.conducts(inv)) << "v=" << v;
  }
}

TEST(SpExpr, PinCountAndMaxPin) {
  const SpExpr e = SpExpr::parallel(
      {SpExpr::series({SpExpr::input(0), SpExpr::input(1)}),
       SpExpr::series({SpExpr::parallel({SpExpr::input(0), SpExpr::input(1)}), SpExpr::input(2)})});
  EXPECT_EQ(e.pin_count(0), 2);
  EXPECT_EQ(e.pin_count(1), 2);
  EXPECT_EQ(e.pin_count(2), 1);
  EXPECT_EQ(e.max_pin(), 2);
  EXPECT_EQ(e.transistor_count(), 5);  // the mirror-adder carry network
}

TEST(SpExpr, ExpandCountsTransistorsAndInternalNodes) {
  const SpExpr e = SpExpr::series({SpExpr::input(0), SpExpr::input(1), SpExpr::input(2)});
  int transistors = 0;
  int next_node = 100;
  e.expand(
      1, 2, [&](int, int, int) { ++transistors; }, [&]() { return next_node++; });
  EXPECT_EQ(transistors, 3);
  EXPECT_EQ(next_node, 102);  // two internal nodes for a 3-stack
}

TEST(SpExpr, SingleChildCollapses) {
  const SpExpr e = SpExpr::series({SpExpr::input(3)});
  EXPECT_EQ(e.max_depth(), 1);
  EXPECT_EQ(e.max_pin(), 3);
}

// --- Bits ---

TEST(Bits, RoundTrip) {
  for (std::uint64_t v : {0ull, 1ull, 0x81ull, 0xFFull}) {
    EXPECT_EQ(uint_from_bits(bits_from_uint(v, 8)), v);
  }
}

TEST(Bits, LsbFirst) {
  const auto bits = bits_from_uint(0x01, 8);
  EXPECT_TRUE(bits[0]);
  EXPECT_FALSE(bits[7]);
}

TEST(Bits, Concat) {
  const auto xy = concat_bits(bits_from_uint(0x3, 2), bits_from_uint(0x0, 2));
  EXPECT_EQ(xy.size(), 4u);
  EXPECT_TRUE(xy[0]);
  EXPECT_TRUE(xy[1]);
  EXPECT_FALSE(xy[2]);
}

// --- Netlist construction & evaluation ---

TEST(Netlist, InverterEvaluation) {
  Netlist nl(tech07());
  const NetId in = nl.add_input("a");
  const NetId out = nl.add_inv("inv", in);
  auto v = nl.evaluate({false});
  EXPECT_TRUE(v[static_cast<std::size_t>(out)]);
  v = nl.evaluate({true});
  EXPECT_FALSE(v[static_cast<std::size_t>(out)]);
}

TEST(Netlist, Nand2Nor2TruthTables) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId nand_out = nl.add_nand2("nand", a, b);
  const NetId nor_out = nl.add_nor2("nor", a, b);
  for (int v = 0; v < 4; ++v) {
    const bool av = (v & 1) != 0;
    const bool bv = (v & 2) != 0;
    const auto vals = nl.evaluate({av, bv});
    EXPECT_EQ(vals[static_cast<std::size_t>(nand_out)], !(av && bv));
    EXPECT_EQ(vals[static_cast<std::size_t>(nor_out)], !(av || bv));
  }
}

TEST(Netlist, And2IsTwoGates) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId out = nl.add_and2("and", a, b);
  EXPECT_EQ(nl.gate_count(), 2);
  const auto vals = nl.evaluate({true, true});
  EXPECT_TRUE(vals[static_cast<std::size_t>(out)]);
}

TEST(Netlist, MirrorFaTruthTable) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId ci = nl.add_input("ci");
  const auto fa = nl.add_mirror_fa("fa", a, b, ci);
  for (int v = 0; v < 8; ++v) {
    const bool av = (v & 1) != 0, bv = (v & 2) != 0, cv = (v & 4) != 0;
    const auto vals = nl.evaluate({av, bv, cv});
    const int total = static_cast<int>(av) + static_cast<int>(bv) + static_cast<int>(cv);
    EXPECT_EQ(vals[static_cast<std::size_t>(fa.sum)], (total & 1) != 0) << "v=" << v;
    EXPECT_EQ(vals[static_cast<std::size_t>(fa.cout)], total >= 2) << "v=" << v;
  }
}

TEST(Netlist, MirrorFaIs28Transistors) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId ci = nl.add_input("ci");
  nl.add_mirror_fa("fa", a, b, ci);
  EXPECT_EQ(nl.transistor_count(), 28);  // paper: "3 x 28 transistors" at 3 bits
}

TEST(Netlist, UndrivenNetIsConstantZero) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId zero = nl.net("tied_low");
  const NetId out = nl.add_nand2("nand", a, zero);
  const auto vals = nl.evaluate({true});
  EXPECT_TRUE(vals[static_cast<std::size_t>(out)]);  // NAND(x, 0) = 1
}

TEST(Netlist, DriveConflictsRejected) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId out = nl.add_inv("inv1", a);
  EXPECT_THROW(nl.add_gate("inv2", SpExpr::input(0), {a}, out), std::invalid_argument);
  EXPECT_THROW(nl.add_gate("bad", SpExpr::input(0), {a}, a), std::invalid_argument);
  EXPECT_THROW(nl.add_input("a"), std::invalid_argument);
}

TEST(Netlist, ExprPinBeyondFaninsRejected) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId out = nl.net("out");
  EXPECT_THROW(nl.add_gate("g", SpExpr::input(1), {a}, out), std::invalid_argument);
}

TEST(Netlist, DriverAndFanoutQueries) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId n1 = nl.add_inv("g1", a);
  nl.add_inv("g2", n1);
  nl.add_inv("g3", n1);
  EXPECT_EQ(nl.driver_of(a), -1);
  EXPECT_EQ(nl.driver_of(n1), 0);
  const auto& fo = nl.fanout_of(n1);
  EXPECT_EQ(fo.size(), 2u);
  EXPECT_EQ(nl.fanout_of(nl.gate(1).output).size(), 0u);
}

TEST(Expand, ExtraVirtualGroundCapDampsBounceAtTransistorLevel) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId out = nl.add_inv("inv", a);
  nl.add_load(out, 100.0 * fF);
  auto vx_peak = [&](double cx) {
    ExpandOptions opt;
    opt.sleep_wl = 4.0;
    opt.extra_virtual_ground_cap = cx;
    auto ex = to_spice(nl, opt, {false}, {true});
    spice::Engine eng(ex.circuit);
    spice::TransientOptions topt;
    topt.tstop = 6.0 * ns;
    topt.dt = 2.0 * ps;
    topt.voltage_probes = {"vgnd"};
    return eng.run_transient(topt).voltages.get("vgnd").max_value();
  };
  EXPECT_LT(vx_peak(2.0e-12), 0.6 * vx_peak(0.0));
}

TEST(Expand, SleepModeFloatsVirtualGround) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  nl.add_inv("inv", a);
  ExpandOptions opt;
  opt.sleep_on = false;
  auto ex = to_spice(nl, opt, {true}, {true});
  spice::Engine eng(ex.circuit);
  const auto v = eng.dc_operating_point(1.0);
  // With the sleep FET off and the inverter input high (NMOS on), the
  // virtual ground floats up toward the output-low level's source.
  EXPECT_GT(v[static_cast<std::size_t>(*ex.circuit.find_node("vgnd"))], 0.3);
}

TEST(Expand, RailResistanceCreatesTapChainAndGradient) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  for (int k = 0; k < 4; ++k) {
    nl.add_load(nl.add_inv(std::string("g").append(std::to_string(k)), a), 60.0 * fF);
  }
  ExpandOptions opt;
  opt.sleep_wl = 6.0;
  opt.rail_resistance = 100.0;
  auto ex = to_spice(nl, opt, {false}, {true});
  // 4 rail resistors chained off the sleep node.
  int rails = 0;
  for (const auto& r : ex.circuit.resistors()) {
    if (r.name.rfind("Rrail", 0) == 0) ++rails;
  }
  EXPECT_EQ(rails, 4);
  // During simultaneous discharge, the far tap bounces at least as high
  // as the near tap (monotone IR gradient along the rail).
  spice::Engine eng(ex.circuit);
  spice::TransientOptions topt;
  topt.tstop = 8.0 * ns;
  topt.dt = 2.0 * ps;
  topt.voltage_probes = {"vgnd_t0", "vgnd_t3"};
  const auto res = eng.run_transient(topt);
  EXPECT_GT(res.voltages.get("vgnd_t3").max_value(),
            res.voltages.get("vgnd_t0").max_value() * 1.02);
}

TEST(Expand, ZeroRailResistanceKeepsSharedNode) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  nl.add_inv("g0", a);
  ExpandOptions opt;
  opt.rail_resistance = 0.0;
  auto ex = to_spice(nl, opt, {false}, {true});
  for (const auto& r : ex.circuit.resistors()) {
    EXPECT_NE(r.name.rfind("Rrail", 0), 0u) << "no rail resistors expected";
  }
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId n1 = nl.add_inv("g1", a);
  const NetId n2 = nl.add_inv("g2", n1);
  nl.add_inv("g3", n2);
  const auto order = nl.topo_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_LT(std::find(order.begin(), order.end(), 0) - order.begin(),
            std::find(order.begin(), order.end(), 1) - order.begin());
  EXPECT_LT(std::find(order.begin(), order.end(), 1) - order.begin(),
            std::find(order.begin(), order.end(), 2) - order.begin());
}

TEST(Netlist, ExtendedCellTruthTables) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId or2 = nl.add_or2("or2", a, b);
  const NetId buf = nl.add_buf("buf", a);
  const NetId nand3 = nl.add_nand3("nand3", a, b, c);
  const NetId nor3 = nl.add_nor3("nor3", a, b, c);
  const NetId aoi = nl.add_aoi21("aoi", a, b, c);
  const NetId oai = nl.add_oai21("oai", a, b, c);
  const NetId xor2 = nl.add_xor2("xor2", a, b);
  const NetId xnor2 = nl.add_xnor2("xnor2", a, b);
  for (int v = 0; v < 8; ++v) {
    const bool av = (v & 1) != 0, bv = (v & 2) != 0, cv = (v & 4) != 0;
    const auto vals = nl.evaluate({av, bv, cv});
    auto val = [&](NetId n) { return vals[static_cast<std::size_t>(n)]; };
    EXPECT_EQ(val(or2), av || bv) << v;
    EXPECT_EQ(val(buf), av) << v;
    EXPECT_EQ(val(nand3), !(av && bv && cv)) << v;
    EXPECT_EQ(val(nor3), !(av || bv || cv)) << v;
    EXPECT_EQ(val(aoi), !((av && bv) || cv)) << v;
    EXPECT_EQ(val(oai), !((av || bv) && cv)) << v;
    EXPECT_EQ(val(xor2), av != bv) << v;
    EXPECT_EQ(val(xnor2), av == bv) << v;
  }
}

TEST(Netlist, ExtendedCellTransistorCounts) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  nl.add_aoi21("aoi", a, b, c);
  EXPECT_EQ(nl.transistor_count(), 6);  // single complementary gate
  nl.add_xor2("xor2", a, b);
  EXPECT_EQ(nl.transistor_count(), 6 + 16);  // four NAND2
}

TEST(Netlist, Aoi21StackDepths) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  nl.add_aoi21("aoi", a, b, c);
  const Gate& g = nl.gate(0);
  EXPECT_EQ(g.pulldown.max_depth(), 2);         // a-b series branch
  EXPECT_EQ(g.pulldown.dual().max_depth(), 2);  // PMOS: series(parallel(a,b), c)
}

TEST(Netlist, ExtendedCellsExpandAndSolve) {
  // DC-check AOI21 and XOR2 against logic through the sleep FET.
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId aoi = nl.add_aoi21("aoi", a, b, c);
  const NetId x = nl.add_xor2("xor2", a, b);
  ExpandOptions opt;
  opt.sleep_wl = 15.0;
  for (int v = 0; v < 8; ++v) {
    const std::vector<bool> in = {(v & 1) != 0, (v & 2) != 0, (v & 4) != 0};
    auto ex = to_spice(nl, opt, in, in);
    spice::Engine eng(ex.circuit);
    const auto volts = eng.dc_operating_point(1.0);
    const auto logic = nl.evaluate(in);
    for (const NetId n : {aoi, x}) {
      const double vn = volts[static_cast<std::size_t>(*ex.circuit.find_node(nl.net_name(n)))];
      EXPECT_EQ(vn > 0.6, logic[static_cast<std::size_t>(n)])
          << "net " << nl.net_name(n) << " v=" << v << " vn=" << vn;
    }
  }
}

// --- Equivalent-inverter reduction ---

TEST(Netlist, BetaEffDeratedByStackDepth) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  nl.add_inv("inv", a);            // gate 0: depth 1
  nl.add_nand2("nand", a, b);      // gate 1: NMOS depth 2
  nl.add_nor2("nor", a, b);        // gate 2: NMOS depth 1, PMOS depth 2
  EXPECT_NEAR(nl.beta_n_eff(1) / nl.beta_n_eff(0), 0.5, 1e-12);
  EXPECT_NEAR(nl.beta_n_eff(2) / nl.beta_n_eff(0), 1.0, 1e-12);
  EXPECT_NEAR(nl.beta_p_eff(2) / nl.beta_p_eff(0), 0.5, 1e-12);
}

TEST(Netlist, InputCapCountsPinOccurrences) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId ci = nl.add_input("ci");
  nl.add_mirror_fa("fa", a, b, ci);
  // Carry gate (index 0): pin 0 (= a) appears twice in the 5T network.
  const Technology& t = nl.tech();
  const Gate& carry = nl.gate(0);
  EXPECT_NEAR(nl.input_cap(0, 0),
              2.0 * t.cox * t.lmin * (carry.wn + carry.wp), 1e-20);
  EXPECT_NEAR(nl.input_cap(0, 2),
              1.0 * t.cox * t.lmin * (carry.wn + carry.wp), 1e-20);
}

TEST(Netlist, OutputLoadSumsFanoutAndJunctions) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId n1 = nl.add_inv("g1", a);
  nl.add_inv("g2", n1);
  nl.add_inv("g3", n1);
  nl.add_load(n1, 10.0 * fF);
  const Technology& t = nl.tech();
  const Gate& g1 = nl.gate(0);
  const double fanout_caps = 2.0 * t.cox * t.lmin * (g1.wn + g1.wp);
  const double junction = t.junction_cap(g1.wn) + t.junction_cap(g1.wp);
  EXPECT_NEAR(nl.output_load(0), 10.0 * fF + fanout_caps + junction, 1e-20);
}

TEST(Netlist, TotalNmosWidthBaseline) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  nl.add_nand2("nand", a, b);  // 2 NMOS of default width
  EXPECT_NEAR(nl.total_nmos_width(), 2.0 * nl.tech().wn_default, 1e-15);
}

// --- Expansion to transistors ---

TEST(Expand, InverterDeviceCount) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  nl.add_inv("inv", a);
  const auto ex = to_spice(nl, {}, {false}, {true});
  // 2 logic transistors + 1 sleep FET.
  EXPECT_EQ(ex.circuit.mosfet_count(), 3u);
  EXPECT_EQ(ex.vgnd_node, "vgnd");
  EXPECT_EQ(ex.sleep_device, "Msleep");
}

TEST(Expand, IdealGroundHasNoSleepDevice) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  nl.add_inv("inv", a);
  ExpandOptions opt;
  opt.ground = ExpandOptions::Ground::kIdeal;
  const auto ex = to_spice(nl, opt, {false}, {true});
  EXPECT_EQ(ex.circuit.mosfet_count(), 2u);
  EXPECT_TRUE(ex.sleep_device.empty());
}

TEST(Expand, SleepResistorVariant) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  nl.add_inv("inv", a);
  ExpandOptions opt;
  opt.ground = ExpandOptions::Ground::kSleepResistor;
  const auto ex = to_spice(nl, opt, {false}, {true});
  EXPECT_EQ(ex.circuit.mosfet_count(), 2u);
  ASSERT_EQ(ex.circuit.resistors().size(), 1u);
  EXPECT_EQ(ex.circuit.resistors()[0].name, "Rsleep");
}

TEST(Expand, MirrorFaTransistorCount) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId ci = nl.add_input("ci");
  nl.add_mirror_fa("fa", a, b, ci);
  ExpandOptions opt;
  opt.ground = ExpandOptions::Ground::kIdeal;
  const auto ex = to_spice(nl, opt, {false, false, false}, {true, true, true});
  EXPECT_EQ(ex.circuit.mosfet_count(), 28u);
}

TEST(Expand, SpiceAgreesWithLogicEvaluation) {
  // DC-settle the expanded full adder for every input vector and compare
  // node voltages against boolean evaluation.
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId ci = nl.add_input("ci");
  const auto fa = nl.add_mirror_fa("fa", a, b, ci);
  ExpandOptions opt;
  opt.ground = ExpandOptions::Ground::kSleepFet;
  opt.sleep_wl = 20.0;
  for (int v = 0; v < 8; ++v) {
    const std::vector<bool> in = {(v & 1) != 0, (v & 2) != 0, (v & 4) != 0};
    auto ex = to_spice(nl, opt, in, in);
    spice::Engine eng(ex.circuit);
    const auto volts = eng.dc_operating_point(1.0);
    const auto logic = nl.evaluate(in);
    const double vdd = nl.tech().vdd;
    for (const NetId n : {fa.sum, fa.cout}) {
      const auto node = ex.circuit.find_node(nl.net_name(n));
      ASSERT_TRUE(node.has_value());
      const double vn = volts[static_cast<std::size_t>(*node)];
      if (logic[static_cast<std::size_t>(n)]) {
        EXPECT_GT(vn, 0.9 * vdd) << "net " << nl.net_name(n) << " v=" << v;
      } else {
        EXPECT_LT(vn, 0.1 * vdd) << "net " << nl.net_name(n) << " v=" << v;
      }
    }
  }
}

TEST(Expand, SetInputVectorsSwapsWaveforms) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  nl.add_inv("inv", a);
  ExpandOptions opt;
  auto ex = to_spice(nl, opt, {false}, {false});
  set_input_vectors(nl, opt, ex.circuit, {false}, {true});
  // The input source should now ramp to vdd.
  bool found = false;
  for (const auto& src : ex.circuit.vsources()) {
    if (src.name == "VIN:a") {
      EXPECT_NEAR(src.voltage.last_value(), nl.tech().vdd, 1e-12);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Expand, InverterTransientDelayReasonable) {
  Netlist nl(tech07());
  const NetId a = nl.add_input("a");
  const NetId out = nl.add_inv("inv", a);
  nl.add_load(out, 50.0 * fF);
  ExpandOptions opt;
  opt.sleep_wl = 20.0;
  auto ex = to_spice(nl, opt, {false}, {true});
  spice::Engine eng(ex.circuit);
  spice::TransientOptions topt;
  topt.tstop = 3.0 * ns;
  topt.dt = 1.0 * ps;
  topt.voltage_probes = {"a", nl.net_name(out)};
  const auto res = eng.run_transient(topt);
  const auto d = propagation_delay(res.voltages.get("a"), res.voltages.get(nl.net_name(out)),
                                   nl.tech().vdd, Edge::kRising, Edge::kFalling);
  ASSERT_TRUE(d.has_value());
  EXPECT_GT(*d, 10.0 * ps);
  EXPECT_LT(*d, 2.0 * ns);
}

}  // namespace
}  // namespace mtcmos::netlist
