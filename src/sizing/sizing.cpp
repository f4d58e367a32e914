#include "sizing/sizing.hpp"

#include "models/sleep_transistor.hpp"
#include "netlist/bits.hpp"
#include "util/error.hpp"

namespace mtcmos::sizing {

double sum_of_widths_wl(const Netlist& nl) {
  return nl.total_nmos_width() / nl.tech().lmin;
}

double peak_current_wl(const Technology& tech, double ipeak, double bounce_budget) {
  require(ipeak > 0.0, "peak_current_wl: peak current must be positive");
  require(bounce_budget > 0.0, "peak_current_wl: bounce budget must be positive");
  // Ipeak * R_eff(W/L) <= budget  =>  W/L >= Ipeak / (budget kp (Vdd - Vth)).
  return SleepTransistor::wl_for_resistance(tech, bounce_budget / ipeak);
}

double measure_peak_current(const Netlist& nl, const VectorPair& vp, core::VbsOptions base) {
  base.sleep_resistance = 0.0;
  const core::VbsResult res = core::VbsSimulator(nl, base).run(vp.v0, vp.v1);
  return res.sleep_current.empty() ? 0.0 : res.sleep_current.max_value();
}

std::vector<VectorPair> all_vector_pairs(int n_inputs) {
  require(n_inputs >= 1 && n_inputs <= kMaxExhaustiveInputs,
          "all_vector_pairs: too many inputs to enumerate exhaustively; use "
          "sampled_vector_pairs for larger spaces");
  const std::uint64_t space = 1ull << n_inputs;
  std::vector<VectorPair> pairs;
  pairs.reserve(static_cast<std::size_t>(space * space));
  for (std::uint64_t a = 0; a < space; ++a) {
    for (std::uint64_t b = 0; b < space; ++b) {
      pairs.push_back(
          {netlist::bits_from_uint(a, n_inputs), netlist::bits_from_uint(b, n_inputs)});
    }
  }
  return pairs;
}

std::vector<VectorPair> sampled_vector_pairs(int n_inputs, int count, Rng& rng) {
  require(n_inputs >= 1 && n_inputs <= 64, "sampled_vector_pairs: bad input count");
  require(count >= 1, "sampled_vector_pairs: count must be positive");
  const std::uint64_t mask =
      (n_inputs == 64) ? ~0ull : ((1ull << n_inputs) - 1ull);
  std::vector<VectorPair> pairs;
  pairs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    pairs.push_back({netlist::bits_from_uint(rng.uniform_int(0, mask), n_inputs),
                     netlist::bits_from_uint(rng.uniform_int(0, mask), n_inputs)});
  }
  return pairs;
}

double falling_discharge_weight(const Netlist& nl, const VectorPair& vp) {
  require(vp.v0.size() == nl.inputs().size() && vp.v1.size() == nl.inputs().size(),
          "falling_discharge_weight: input vector size mismatch");
  const auto before = nl.evaluate(vp.v0);
  const auto after = nl.evaluate(vp.v1);
  double weight = 0.0;
  for (int g = 0; g < nl.gate_count(); ++g) {
    const auto out = static_cast<std::size_t>(nl.gate(g).output);
    if (before[out] && !after[out]) weight += nl.beta_n_eff(g);
  }
  return weight;
}

}  // namespace mtcmos::sizing
