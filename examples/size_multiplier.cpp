// Scenario: size the sleep transistor of an 8x8 carry-save multiplier --
// the paper's Section 4 case study, run as a user would run it.
//
// The 16-input vector space (2^32 transitions) cannot be enumerated, so
// the flow mirrors the paper's methodology:
//   1. use the fast switch-level simulator to *search* for a worst-case
//      vector (random sampling + greedy bit-flip refinement),
//   2. compare it against the naive "critical path" intuition (the
//      rippling vector B) to show why input patterns matter,
//   3. size the sleep device for a 5% degradation target against the
//      found vector,
//   4. verify the final size with a handful of transistor-level runs.
//
// Build & run:  ./build/examples/size_multiplier   (takes ~1 min)

#include <iostream>

#include "circuits/generators.hpp"
#include "models/technology.hpp"
#include "netlist/bits.hpp"
#include "sizing/sizing.hpp"
#include "sizing/spice_ref.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

int main() {
  using namespace mtcmos;
  using namespace mtcmos::units;
  using netlist::bits_from_uint;
  using netlist::concat_bits;
  using netlist::uint_from_bits;

  const Technology tech = tech03();  // 0.3 um / 1.0 V process of the paper
  const auto mult = circuits::make_csa_multiplier(tech, 8);
  std::cout << "Circuit: 8x8 carry-save multiplier, " << mult.netlist.gate_count()
            << " gates, " << mult.netlist.transistor_count() << " transistors\n";

  std::vector<std::string> outputs;
  for (const auto p : mult.p) outputs.push_back(mult.netlist.net_name(p));
  const sizing::VbsBackend eval(mult.netlist, outputs);

  // 1. Search the 2^32 transition space with the switch-level simulator.
  Rng rng(2026);
  const double search_wl = 60.0;  // deliberately tight so stress shows up
  std::cout << "\nSearching for a worst-case vector at W/L = " << search_wl << " ...\n";
  const sizing::VectorDelay worst = sizing::search_worst_vector(eval, search_wl, 150, rng);
  const auto x0 = uint_from_bits({worst.pair.v0.begin(), worst.pair.v0.begin() + 8});
  const auto y0 = uint_from_bits({worst.pair.v0.begin() + 8, worst.pair.v0.end()});
  const auto x1 = uint_from_bits({worst.pair.v1.begin(), worst.pair.v1.begin() + 8});
  const auto y1 = uint_from_bits({worst.pair.v1.begin() + 8, worst.pair.v1.end()});
  std::cout << std::hex << "Found: (x,y) = (" << x0 << "," << y0 << ") -> (" << x1 << "," << y1
            << ")" << std::dec << " with " << worst.degradation_pct
            << "% degradation at W/L = " << search_wl << "\n";

  // 2. Compare with the paper's two named vectors.
  const sizing::VectorPair vec_a{concat_bits(bits_from_uint(0x00, 8), bits_from_uint(0x00, 8)),
                                 concat_bits(bits_from_uint(0xFF, 8), bits_from_uint(0x81, 8))};
  const sizing::VectorPair vec_b{concat_bits(bits_from_uint(0x7F, 8), bits_from_uint(0x81, 8)),
                                 concat_bits(bits_from_uint(0xFF, 8), bits_from_uint(0x81, 8))};
  std::cout << "Paper vector A (00,00)->(FF,81): " << eval.degradation_pct(vec_a, search_wl)
            << "% at W/L = " << search_wl << "\n";
  std::cout << "Paper vector B (7F,81)->(FF,81): " << eval.degradation_pct(vec_b, search_wl)
            << "%  <- sizing from this one would badly undersize the device\n";

  // 3. Size for 5% against the stress set.
  const std::vector<sizing::VectorPair> stress = {worst.pair, vec_a, vec_b};
  const sizing::SizingResult sized =
      sizing::size_for_degradation(eval, stress, 5.0, {.wl_min = 10.0, .wl_max = 3000.0});
  std::cout << "\nSized for <= 5%: W/L = " << sized.wl << " (achieves " << sized.degradation_pct
            << "%)\n";

  // 4. Transistor-level spot check of the chosen size on vector A.
  sizing::SpiceRefOptions mt;
  mt.expand.sleep_wl = sized.wl;
  mt.tstop = 12.0 * ns;
  mt.dt = 4.0 * ps;
  sizing::SpiceRef ref_mt(mult.netlist, outputs, mt);
  sizing::SpiceRefOptions cm = mt;
  cm.expand.ground = netlist::ExpandOptions::Ground::kIdeal;
  sizing::SpiceRef ref_cm(mult.netlist, outputs, cm);
  const double d_mt = ref_mt.measure(vec_a).delay;
  const double d_cm = ref_cm.measure(vec_a).delay;
  std::cout << "Transistor-level check (vector A): CMOS " << d_cm / ns << " ns -> MTCMOS "
            << d_mt / ns << " ns = " << (d_mt - d_cm) / d_cm * 100.0 << "% degradation\n"
            << "(The switch-level sizer is deliberately conservative-fast; final\n"
            << " numbers always come from the detailed engine, as the paper proposes.)\n";
  return 0;
}
