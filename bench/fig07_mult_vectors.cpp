// FIG7 + TABLE1 -- input-vector dependence of the 8x8 carry-save
// multiplier (paper Section 4, Figure 7, Table 1).
//
// Two transitions that have comparable delay in plain CMOS behave very
// differently in MTCMOS:
//   Vector A: (x, y) = (00, 00) -> (FF, 81)  -- many adjacent cells toggle
//             at once, large simultaneous discharge currents.
//   Vector B: (x, y) = (7F, 81) -> (FF, 81)  -- a rippling transition,
//             few cells discharging at the same time.
// The bench sweeps the sleep W/L with the transistor-level engine and
// prints delay and % degradation (vs the ideal-ground CMOS baseline) for
// both vectors -- the paper's Fig. 7 curves and Table 1 rows.

#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "circuits/generators.hpp"
#include "models/technology.hpp"
#include "netlist/bits.hpp"
#include "sizing/sizing.hpp"
#include "sizing/spice_ref.hpp"
#include "util/units.hpp"

int main() {
  using namespace mtcmos;
  using namespace mtcmos::units;
  using netlist::bits_from_uint;
  using netlist::concat_bits;
  bench::print_header("FIG7+TABLE1", "8x8 multiplier delay vs sleep W/L for two vectors");

  const auto mult = circuits::make_csa_multiplier(tech03(), 8);
  std::vector<std::string> outs;
  for (const auto p : mult.p) outs.push_back(mult.netlist.net_name(p));

  const sizing::VectorPair vec_a{
      concat_bits(bits_from_uint(0x00, 8), bits_from_uint(0x00, 8)),
      concat_bits(bits_from_uint(0xFF, 8), bits_from_uint(0x81, 8))};
  const sizing::VectorPair vec_b{
      concat_bits(bits_from_uint(0x7F, 8), bits_from_uint(0x81, 8)),
      concat_bits(bits_from_uint(0xFF, 8), bits_from_uint(0x81, 8))};

  // CMOS baselines (ideal ground).
  sizing::SpiceRefOptions base;
  base.expand.ground = netlist::ExpandOptions::Ground::kIdeal;
  base.tstop = 12.0 * ns;
  base.dt = 4.0 * ps;
  sizing::SpiceRef cmos_ref(mult.netlist, outs, base);
  const double d_cmos_a = cmos_ref.measure(vec_a).delay;
  const double d_cmos_b = cmos_ref.measure(vec_b).delay;
  std::cout << "CMOS (ideal ground) delays: vector A = " << Table::num(d_cmos_a / ns, 4)
            << " ns, vector B = " << Table::num(d_cmos_b / ns, 4)
            << " ns (comparable, as in the paper)\n\n";

  // Switch-level tool alongside (the paper's intended use at this scale:
  // sweep fast, SPICE-verify after).
  const sizing::VbsBackend eval(mult.netlist, outs);

  Table fig7({"sleep W/L", "A tpd [ns]", "A degr [%]", "A degr VBS [%]", "B tpd [ns]",
              "B degr [%]", "B degr VBS [%]", "A Vx peak [V]", "A Ipeak [mA]"});
  std::map<double, std::pair<double, double>> degr;  // wl -> (A%, B%)
  for (double wl : {20.0, 40.0, 60.0, 100.0, 170.0, 300.0, 500.0, 1000.0}) {
    sizing::SpiceRefOptions opt = base;
    opt.expand.ground = netlist::ExpandOptions::Ground::kSleepFet;
    opt.expand.sleep_wl = wl;
    sizing::SpiceRef ref(mult.netlist, outs, opt);
    const auto ma = ref.measure(vec_a);
    const auto mb = ref.measure(vec_b);
    const double da = (ma.delay - d_cmos_a) / d_cmos_a * 100.0;
    const double db = (mb.delay - d_cmos_b) / d_cmos_b * 100.0;
    degr[wl] = {da, db};
    fig7.add_row({Table::num(wl, 4), Table::num(ma.delay / ns, 4), Table::num(da, 3),
                  Table::num(eval.degradation_pct(vec_a, wl), 3), Table::num(mb.delay / ns, 4),
                  Table::num(db, 3), Table::num(eval.degradation_pct(vec_b, wl), 3),
                  Table::num(ma.vx_peak, 3), Table::num(ma.sleep_ipeak / mA, 4)});
  }
  bench::print_table(fig7, "fig07");

  Table t1({"sleep W/L", "degradation vector A [%]", "degradation vector B [%]"});
  for (double wl : {60.0, 170.0, 500.0}) {
    t1.add_row({Table::num(wl, 4), Table::num(degr[wl].first, 3),
                Table::num(degr[wl].second, 3)});
  }
  std::cout << "Table 1 analogue (paper: W/L=60 -> 18.1% for A but only ~5% for B;\n"
               "sizing from vector B alone badly underestimates what A needs):\n";
  bench::print_table(t1, "table1");
  return 0;
}
