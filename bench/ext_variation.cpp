// EXT-VAR -- process variation on sleep sizing (post-paper extension).
//
// The sleep device's R_eff = 1/(kp (W/L)(Vdd - Vt,high)) is hyper-
// sensitive to the high-Vt implant: with Vdd - Vt,high = 0.45 V (the
// 0.7 um process), a +-30 mV sigma on Vt,high is a +-7% sigma on the gate
// drive.  This bench Monte-Carlo-samples chips, shows how much of the
// population a nominally-sized device fails, and compares nominal sizing
// against p95 yield-aware sizing.

#include <iostream>

#include "bench_util.hpp"
#include "circuits/generators.hpp"
#include "models/technology.hpp"
#include "netlist/bits.hpp"
#include "sizing/sizing.hpp"
#include "sizing/variation.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

int main() {
  using namespace mtcmos;
  using namespace mtcmos::units;
  using netlist::bits_from_uint;
  using netlist::concat_bits;
  bench::print_header("EXT-VAR", "Process variation: nominal vs yield-aware sleep sizing");

  const Technology nominal = tech07();
  const sizing::NetlistBuilder builder = [](const Technology& t) {
    return circuits::make_ripple_adder(t, 3).netlist;
  };
  // Output names are technology-independent.
  const auto ref = circuits::make_ripple_adder(nominal, 3);
  std::vector<std::string> outputs;
  for (const auto s : ref.sum) outputs.push_back(ref.netlist.net_name(s));
  outputs.push_back(ref.netlist.net_name(ref.cout));
  const sizing::VectorPair vp{concat_bits(bits_from_uint(0, 3), bits_from_uint(0, 3)),
                              concat_bits(bits_from_uint(7, 3), bits_from_uint(7, 3))};

  const sizing::VariationModel model;  // 15 mV low-Vt, 30 mV high-Vt, 5% kp
  const int samples = 300;

  // (1) Degradation distribution across W/L.
  Table dist({"W/L", "nominal degr [%]", "mean [%]", "p50 [%]", "p95 [%]", "worst [%]"});
  for (double wl : {10.0, 20.0, 40.0, 80.0}) {
    Rng rng(42);
    const auto res = sizing::monte_carlo_degradation(builder, nominal, outputs, vp, wl, model,
                                                     samples, rng);
    dist.add_row({Table::num(wl, 4), Table::num(res.nominal, 3), Table::num(res.mean, 3),
                  Table::num(res.p50, 3), Table::num(res.p95, 3), Table::num(res.worst, 3)});
  }
  bench::print_table(dist, "ext_var_dist");

  // (2) Nominal-corner sizing vs yield-aware sizing for a 10% target.
  const double target = 10.0;
  const sizing::VbsBackend eval(ref.netlist, outputs);
  const double wl_nominal = sizing::size_for_degradation(eval, {vp}, target).wl;
  const double wl_p95 = sizing::wl_for_yield(builder, nominal, outputs, vp, target, 0.95, model,
                                             samples, /*seed=*/42);
  Rng check_rng(1234);  // fresh seed: honest out-of-sample check
  const auto at_nominal = sizing::monte_carlo_degradation(builder, nominal, outputs, vp,
                                                          wl_nominal, model, samples, check_rng);
  Rng check_rng2(1234);
  const auto at_p95 = sizing::monte_carlo_degradation(builder, nominal, outputs, vp, wl_p95,
                                                      model, samples, check_rng2);
  auto fail_fraction = [&](const sizing::VariationResult& r) {
    std::size_t fails = 0;
    for (const double d : r.degradation_pct) {
      if (d > target) ++fails;
    }
    return 100.0 * static_cast<double>(fails) / static_cast<double>(r.degradation_pct.size());
  };

  Table table({"sizing", "W/L", "p95 degr [%]", "chips missing 10% target [%]"});
  table.add_row({"nominal corner", Table::num(wl_nominal, 4), Table::num(at_nominal.p95, 3),
                 Table::num(fail_fraction(at_nominal), 3)});
  table.add_row({"p95 yield-aware", Table::num(wl_p95, 4), Table::num(at_p95.p95, 3),
                 Table::num(fail_fraction(at_p95), 3)});
  bench::print_table(table, "ext_var_sizing");
  std::cout << "Reading: a device sized exactly at the nominal corner misses the\n"
               "degradation target on roughly half the population (the median chip\n"
               "sits at the target); covering the p95 corner costs "
            << Table::num((wl_p95 / wl_nominal - 1.0) * 100.0, 3)
            << "% extra width.  Variation-aware\n"
               "margining is cheap insurance for a device this Vt-sensitive.\n";
  return 0;
}
