// Scenario: exhaustive input-vector analysis of a small block -- the
// paper's Section 6.2 workflow.
//
// For circuits with few inputs the whole transition space is enumerable:
// the 3-bit adder has 2^6 x 2^6 = 4096 vector pairs, which the
// switch-level simulator chews through in a fraction of a second.  The
// example ranks every transition by MTCMOS degradation, prints the
// worst offenders (the shortlist one would hand to a detailed simulator),
// and shows how the worst *CMOS* vector is NOT the worst MTCMOS vector --
// the central warning of the paper.
//
// Build & run:  ./build/examples/adder_vector_sweep [--threads N]
// (default thread count: MTCMOS_THREADS env var, else all cores)

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "circuits/generators.hpp"
#include "core/glitch.hpp"
#include "core/vbs.hpp"
#include "models/sleep_transistor.hpp"
#include "models/technology.hpp"
#include "netlist/bits.hpp"
#include "sizing/sizing.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace mtcmos;
  using namespace mtcmos::units;
  using netlist::uint_from_bits;

  int threads = util::ThreadPool::default_thread_count();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      if (threads < 1) threads = 1;
    } else {
      std::cerr << "usage: adder_vector_sweep [--threads N]\n";
      return 2;
    }
  }
  util::ThreadPool pool(threads);

  const auto adder = circuits::make_ripple_adder(tech07(), 3);
  std::vector<std::string> outputs;
  for (const auto s : adder.sum) outputs.push_back(adder.netlist.net_name(s));
  outputs.push_back(adder.netlist.net_name(adder.cout));
  const sizing::VbsBackend eval(adder.netlist, outputs);
  const double wl = 8.0;

  const auto pairs = sizing::all_vector_pairs(6);
  std::cout << "Sweeping " << pairs.size() << " vector transitions at sleep W/L = " << wl
            << " on " << pool.thread_count() << " threads ...\n";
  const auto t0 = std::chrono::steady_clock::now();
  const auto ranked = sizing::rank_vectors(eval, pairs, wl, {.pool = &pool});
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::cout << ranked.size() << " transitions toggle an output; swept in " << secs
            << " s (paper: 13.5 s on a Sparc 5 for the same space)\n\n";

  Table top({"v0 (b:a)", "v1 (b:a)", "CMOS tpd [ns]", "MTCMOS tpd [ns]", "degr [%]"});
  for (std::size_t i = 0; i < 10 && i < ranked.size(); ++i) {
    const auto& vd = ranked[i];
    top.add_row({std::to_string(uint_from_bits(vd.pair.v0)),
                 std::to_string(uint_from_bits(vd.pair.v1)),
                 Table::num(vd.delay_cmos / ns, 4), Table::num(vd.delay_mtcmos / ns, 4),
                 Table::num(vd.degradation_pct, 3)});
  }
  std::cout << "Worst 10 transitions by MTCMOS degradation (SPICE-verification\n"
               "shortlist):\n";
  top.print(std::cout);

  // The paper's warning: worst-CMOS != worst-MTCMOS.
  const auto worst_cmos = std::max_element(
      ranked.begin(), ranked.end(),
      [](const auto& a, const auto& b) { return a.delay_cmos < b.delay_cmos; });
  const auto worst_mt = std::max_element(
      ranked.begin(), ranked.end(),
      [](const auto& a, const auto& b) { return a.delay_mtcmos < b.delay_mtcmos; });
  std::cout << "\nWorst CMOS-delay vector:   " << uint_from_bits(worst_cmos->pair.v0) << " -> "
            << uint_from_bits(worst_cmos->pair.v1) << " (" << worst_cmos->delay_cmos / ns
            << " ns CMOS, " << worst_cmos->delay_mtcmos / ns << " ns MTCMOS)\n";
  std::cout << "Worst MTCMOS-delay vector: " << uint_from_bits(worst_mt->pair.v0) << " -> "
            << uint_from_bits(worst_mt->pair.v1) << " (" << worst_mt->delay_cmos / ns
            << " ns CMOS, " << worst_mt->delay_mtcmos / ns << " ns MTCMOS)\n";
  if (worst_cmos != worst_mt) {
    std::cout << "They differ: a critical-path tool calibrated for CMOS would pick\n"
                 "the wrong vector for MTCMOS sizing (paper Section 2.4).\n";
  }

  // Glitch anatomy of the worst transition (paper Sec 2.4: glitching is
  // what makes MTCMOS worst cases hard to guess).
  {
    const auto& worst = ranked.front();
    core::VbsOptions opt;
    opt.sleep_resistance = SleepTransistor(tech07(), wl).reff();
    const core::VbsSimulator sim(adder.netlist, opt);
    const auto res = sim.run(worst.pair.v0, worst.pair.v1);
    const auto rep = core::analyze_glitches(res, adder.netlist, worst.pair.v0, worst.pair.v1);
    std::cout << "\nGlitch report for the worst transition: " << rep.glitching_nets.size()
              << " nets glitch, " << rep.total_extra_crossings
              << " non-functional threshold crossings, wasted switched charge "
              << rep.wasted_charge_cap * 1e15 << " fC\n";
    for (std::size_t i = 0; i < 3 && i < rep.glitching_nets.size(); ++i) {
      const auto& ng = rep.glitching_nets[i];
      std::cout << "  " << adder.netlist.net_name(ng.net) << ": partial swing "
                << ng.worst_partial << " V, extra crossings " << ng.extra_crossings << "\n";
    }
  }

  // How much sleep transistor does each target cost on this block?
  std::cout << "\nSizing vs target (worst 25 vectors as the stress set):\n";
  std::vector<sizing::VectorPair> stress;
  for (std::size_t i = 0; i < 25 && i < ranked.size(); ++i) stress.push_back(ranked[i].pair);
  Table sizes({"target degr [%]", "required W/L"});
  for (double target : {20.0, 10.0, 5.0, 2.0}) {
    const auto s = sizing::size_for_degradation(eval, stress, target, {}, {.pool = &pool});
    sizes.add_row({Table::num(target, 3), Table::num(s.wl, 4)});
  }
  sizes.print(std::cout);
  return 0;
}
