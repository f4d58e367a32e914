// EXT-STA -- why critical-path tools are "not adequate" for MTCMOS
// (paper Section 2.4 / Section 4, quantified).
//
// Three delay estimates for the 3-bit adder at shared sleep W/L = 10:
//   (a) STA on plain CMOS cell tables -- what a conventional flow sees;
//   (b) STA on MTCMOS-derated tables (each cell characterized with its
//       OWN W/L = 10 sleep device) -- the best a per-cell table method
//       can do;
//   (c) the actual worst vector through the transistor-level engine with
//       one SHARED W/L = 10 device -- reality.
// (b) improves on (a) but still misses the simultaneous-switching
// interaction through the shared virtual ground, which only vector-aware
// simulation captures.  That gap is the paper's core argument for its
// tool.

#include <iostream>

#include "bench_util.hpp"
#include "circuits/generators.hpp"
#include "models/technology.hpp"
#include "netlist/bits.hpp"
#include "sizing/sizing.hpp"
#include "sizing/spice_ref.hpp"
#include "sizing/sta.hpp"
#include "util/units.hpp"

int main() {
  using namespace mtcmos;
  using namespace mtcmos::units;
  bench::print_header("EXT-STA", "Cell-table STA vs vector-aware simulation on MTCMOS");

  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  const double wl = 10.0;

  // (a) plain-table STA.
  sizing::StaOptions plain;
  const sizing::StaEngine sta_plain(adder.netlist, plain);
  const auto r_plain = sta_plain.analyze();

  // (b) derated-table STA (per-cell sleep device of the same W/L).
  sizing::StaOptions derated;
  derated.ground = netlist::ExpandOptions::Ground::kSleepFet;
  derated.sleep_wl = wl;
  const sizing::StaEngine sta_der(adder.netlist, derated);
  const auto r_der = sta_der.analyze();

  std::cout << "Characterized arcs: " << sta_plain.arc_count() << " (plain), "
            << sta_der.arc_count() << " (derated)\n";

  // (c) reality: worst vector over the exhaustive space, shared device.
  sizing::SpiceRefOptions cm;
  cm.expand.ground = netlist::ExpandOptions::Ground::kIdeal;
  cm.tstop = 15.0 * ns;
  sizing::SpiceRef ref_cmos(adder.netlist, outs, cm);
  sizing::SpiceRefOptions mt = cm;
  mt.expand.ground = netlist::ExpandOptions::Ground::kSleepFet;
  mt.expand.sleep_wl = wl;
  sizing::SpiceRef ref_mt(adder.netlist, outs, mt);

  // Narrow with the fast simulator (the paper's flow), SPICE-verify the
  // top candidates -- ranked by *absolute* delay for each target metric.
  const sizing::VbsBackend eval(adder.netlist, outs);
  auto ranked = sizing::rank_vectors(eval, sizing::all_vector_pairs(6), wl);
  double worst_cmos = 0.0, worst_mt = 0.0;
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.delay_mtcmos > b.delay_mtcmos; });
  for (std::size_t i = 0; i < 12 && i < ranked.size(); ++i) {
    worst_mt = std::max(worst_mt, ref_mt.measure(ranked[i].pair).delay);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.delay_cmos > b.delay_cmos; });
  for (std::size_t i = 0; i < 12 && i < ranked.size(); ++i) {
    worst_cmos = std::max(worst_cmos, ref_cmos.measure(ranked[i].pair).delay);
  }

  Table table({"estimate", "CMOS [ns]", "MTCMOS W/L=10 [ns]", "vs reality"});
  table.add_row({"STA, plain tables", Table::num(r_plain.worst_arrival / ns, 4),
                 Table::num(r_plain.worst_arrival / ns, 4),
                 Table::num(r_plain.worst_arrival / worst_mt, 3) + "x"});
  table.add_row({"STA, per-cell derated tables", "-", Table::num(r_der.worst_arrival / ns, 4),
                 Table::num(r_der.worst_arrival / worst_mt, 3) + "x"});
  table.add_row({"vector-aware (worst vector, SPICE ref)", Table::num(worst_cmos / ns, 4),
                 Table::num(worst_mt / ns, 4), "1.0x"});
  bench::print_table(table, "ext_sta");
  std::cout << "Reading: the STA machinery itself is sound -- its plain-table estimate\n"
               "matches the measured worst CMOS vector within a couple of percent.  On\n"
               "MTCMOS it underestimates reality even with per-cell derated tables,\n"
               "because the bounce depends on *which vector switches what together*\n"
               "through the shared sleep device -- information a topological tool\n"
               "cannot have (paper Sec 2.4: 'one cannot simply examine a critical\n"
               "path ... must also consider all other accompanying gates that are\n"
               "switching').\n";
  return 0;
}
