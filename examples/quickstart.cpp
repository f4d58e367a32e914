// Quickstart: size the sleep transistor of a small MTCMOS block.
//
// Walks the complete toolkit flow on a 3-bit ripple-carry adder:
//   1. build a circuit from the cell library,
//   2. simulate one input transition with the variable-breakpoint
//      switch-level simulator and look at the virtual-ground bounce,
//   3. let the sizing engine pick the smallest sleep W/L that keeps the
//      worst-vector delay degradation under 10%,
//   4. sanity-check the chosen size against the transistor-level engine.
//
// Build & run:  ./build/examples/quickstart

#include <iostream>

#include "circuits/generators.hpp"
#include "core/vbs.hpp"
#include "models/sleep_transistor.hpp"
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

  // 1. A 3-bit mirror-adder ripple chain in the 0.7 um / 1.2 V process.
  const Technology tech = tech07();
  const auto adder = circuits::make_ripple_adder(tech, 3);
  std::cout << "Circuit: 3-bit ripple-carry adder, " << adder.netlist.gate_count()
            << " gates, " << adder.netlist.transistor_count() << " transistors\n";

  std::vector<std::string> outputs;
  for (const auto s : adder.sum) outputs.push_back(adder.netlist.net_name(s));
  outputs.push_back(adder.netlist.net_name(adder.cout));

  // 2. One transition through the switch-level simulator: 0+0 -> 7+1
  //    ripples a carry through the whole chain.
  const sizing::VectorPair vp{concat_bits(bits_from_uint(0, 3), bits_from_uint(0, 3)),
                              concat_bits(bits_from_uint(7, 3), bits_from_uint(1, 3))};
  core::VbsOptions vbs_opt;
  vbs_opt.sleep_resistance = SleepTransistor(tech, 10.0).reff();
  const core::VbsSimulator vbs(adder.netlist, vbs_opt);
  const core::VbsResult res = vbs.run(vp.v0, vp.v1);
  std::cout << "\nW/L = 10 simulation: " << res.breakpoints << " breakpoints, "
            << "virtual ground peaked at " << res.vx_peak * 1e3 << " mV, last output settled "
            << res.finish_time / ns << " ns in\n";

  // 3. Size for <= 5% worst-case degradation over a set of stress vectors.
  const sizing::VbsBackend eval(adder.netlist, outputs);
  const std::vector<sizing::VectorPair> vectors = {
      vp,
      {concat_bits(bits_from_uint(0, 3), bits_from_uint(0, 3)),
       concat_bits(bits_from_uint(7, 3), bits_from_uint(7, 3))},
      {concat_bits(bits_from_uint(5, 3), bits_from_uint(2, 3)),
       concat_bits(bits_from_uint(2, 3), bits_from_uint(5, 3))},
  };
  const sizing::SizingResult sized = sizing::size_for_degradation(eval, vectors, 10.0);
  std::cout << "\nSizing for <= 10% degradation: W/L = " << sized.wl << " (achieves "
            << sized.degradation_pct << "%)\n";
  std::cout << "Naive sum-of-widths baseline: W/L = "
            << sizing::sum_of_widths_wl(adder.netlist) << " ("
            << sizing::sum_of_widths_wl(adder.netlist) / sized.wl
            << "x the sized device; on big blocks the gap is 10-20x, see the\n"
            << "sec4_peak_current bench)\n";

  // 4. Verify the chosen size at transistor level.
  sizing::SpiceRefOptions sref;
  sref.expand.sleep_wl = sized.wl;
  sref.tstop = 12.0 * ns;
  sizing::SpiceRef ref(adder.netlist, outputs, sref);
  sizing::SpiceRefOptions cref = sref;
  cref.expand.ground = netlist::ExpandOptions::Ground::kIdeal;
  sizing::SpiceRef cmos(adder.netlist, outputs, cref);
  const double d_mt = ref.measure(vp).delay;
  const double d_cm = cmos.measure(vp).delay;
  std::cout << "\nTransistor-level check at W/L = " << sized.wl << ": CMOS " << d_cm / ns
            << " ns -> MTCMOS " << d_mt / ns << " ns ("
            << (d_mt - d_cm) / d_cm * 100.0 << "% degradation)\n";
  return 0;
}
