#include "sizing/sta.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace mtcmos::sizing {

namespace {

/// Find static pin values that make `pin` controlling (flipping it flips
/// conduction).  Returns false if none exists.
bool find_sensitization(const netlist::SpExpr& pulldown, int n_pins, int pin,
                        std::vector<bool>& statics) {
  const int others = n_pins - 1;
  for (int mask = 0; mask < (1 << others); ++mask) {
    std::vector<bool> pins(static_cast<std::size_t>(n_pins), false);
    int bit = 0;
    for (int p = 0; p < n_pins; ++p) {
      if (p == pin) continue;
      pins[static_cast<std::size_t>(p)] = ((mask >> bit) & 1) != 0;
      ++bit;
    }
    std::vector<bool> hi = pins;
    hi[static_cast<std::size_t>(pin)] = true;
    if (pulldown.conducts(pins) != pulldown.conducts(hi)) {
      statics = pins;
      return true;
    }
  }
  return false;
}

}  // namespace

StaEngine::StaEngine(const netlist::Netlist& nl, StaOptions options)
    : nl_(nl), options_(options) {
  require(!options_.slews.empty() && !options_.loads.empty(), "StaEngine: empty table grid");
  arcs_.resize(static_cast<std::size_t>(nl_.gate_count()));
  loads_.resize(static_cast<std::size_t>(nl_.gate_count()));

  for (int g = 0; g < nl_.gate_count(); ++g) {
    const netlist::Gate& gate = nl_.gate(g);
    loads_[static_cast<std::size_t>(g)] = nl_.output_load(g);
    const int n_pins = static_cast<int>(gate.fanins.size());
    auto& gate_arcs = arcs_[static_cast<std::size_t>(g)];
    gate_arcs.resize(static_cast<std::size_t>(n_pins));

    for (int pin = 0; pin < n_pins; ++pin) {
      std::vector<bool> statics;
      if (!find_sensitization(gate.pulldown, n_pins, pin, statics)) {
        // A pin that can never control the output contributes no arc.
        continue;
      }
      std::ostringstream key;
      key << gate.pulldown.serialize(
                 [](int p) { return std::string("p").append(std::to_string(p)); })
          << '|' << pin << '|' << gate.wn << '|' << gate.wp << '|'
          << static_cast<int>(options_.ground) << '|' << options_.sleep_wl << '|';
      for (const bool b : statics) key << (b ? '1' : '0');

      auto it = tables_.find(key.str());
      if (it == tables_.end()) {
        CharacterizeSpec spec;
        spec.pulldown = gate.pulldown;
        spec.n_pins = n_pins;
        spec.switch_pin = pin;
        spec.static_pins = statics;
        spec.wn = gate.wn;
        spec.wp = gate.wp;
        spec.slews = options_.slews;
        spec.loads = options_.loads;
        spec.ground = options_.ground;
        spec.sleep_wl = options_.sleep_wl;
        it = tables_.emplace(key.str(), characterize_cell(nl_.tech(), spec)).first;
      }
      gate_arcs[static_cast<std::size_t>(pin)].table = &it->second;
    }
  }
}

StaResult StaEngine::analyze() const {
  StaResult res;
  const std::size_t n_nets = static_cast<std::size_t>(nl_.net_count());
  res.arrival_rise.assign(n_nets, -1.0);  // -1 = edge cannot occur
  res.arrival_fall.assign(n_nets, -1.0);
  res.slew_rise.assign(n_nets, options_.input_slew);
  res.slew_fall.assign(n_nets, options_.input_slew);

  for (const netlist::NetId in : nl_.inputs()) {
    res.arrival_rise[static_cast<std::size_t>(in)] = 0.0;
    res.arrival_fall[static_cast<std::size_t>(in)] = 0.0;
  }

  for (const int g : nl_.topo_order()) {
    const netlist::Gate& gate = nl_.gate(g);
    const std::size_t out = static_cast<std::size_t>(gate.output);
    const double load = loads_[static_cast<std::size_t>(g)];
    // Negative-unate arcs: input rise -> output fall, input fall -> rise.
    for (std::size_t pin = 0; pin < gate.fanins.size(); ++pin) {
      const Arc& arc = arcs_[static_cast<std::size_t>(g)][pin];
      if (arc.table == nullptr) continue;
      const std::size_t in = static_cast<std::size_t>(gate.fanins[pin]);

      const double a_rise_in = res.arrival_rise[in];
      if (a_rise_in >= 0.0) {
        const double slew_in = res.slew_rise[in];
        const double arr = a_rise_in + arc.table->delay(false, slew_in, load);
        if (arr > res.arrival_fall[out]) {
          res.arrival_fall[out] = arr;
          res.slew_fall[out] = arc.table->transition(false, slew_in, load);
        }
      }
      const double a_fall_in = res.arrival_fall[in];
      if (a_fall_in >= 0.0) {
        const double slew_in = res.slew_fall[in];
        const double arr = a_fall_in + arc.table->delay(true, slew_in, load);
        if (arr > res.arrival_rise[out]) {
          res.arrival_rise[out] = arr;
          res.slew_rise[out] = arc.table->transition(true, slew_in, load);
        }
      }
    }
  }

  for (netlist::NetId n = 0; n < nl_.net_count(); ++n) {
    const double a = std::max(res.arrival_rise[static_cast<std::size_t>(n)],
                              res.arrival_fall[static_cast<std::size_t>(n)]);
    if (a > res.worst_arrival) {
      res.worst_arrival = a;
      res.worst_net = n;
    }
  }
  return res;
}

}  // namespace mtcmos::sizing
