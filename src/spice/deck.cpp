#include "spice/deck.hpp"

#include <cctype>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace mtcmos::spice {

std::string spice_safe_name(const std::string& name) {
  if (name == "0") return "0";
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back('_');
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'n');
  }
  return out;
}

namespace {

/// Structural key for deduplicating model cards.
std::string model_key(const MosParams& p) {
  std::ostringstream ss;
  ss << (p.type == MosType::kNmos ? "n" : "p") << ':' << p.vt0 << ':' << p.gamma << ':' << p.phi
     << ':' << p.lambda << ':' << p.kp << ':' << p.n_sub;
  return ss.str();
}

}  // namespace

void write_spice_deck(std::ostream& os, const Circuit& circuit, const DeckOptions& options) {
  os << "* " << options.title << "\n";
  os << "* exported by mtcmos-kit (level-1 models; subthreshold behaviour of the\n";
  os << "* internal engine is approximated by the simulator's own weak inversion)\n";

  // Unique node names.
  std::map<NodeId, std::string> node_name;
  std::set<std::string> used;
  for (NodeId n = 0; n < circuit.node_count(); ++n) {
    std::string base = spice_safe_name(circuit.node_name(n));
    std::string candidate = base;
    int suffix = 1;
    while (used.count(candidate) != 0) candidate = base + "_" + std::to_string(suffix++);
    used.insert(candidate);
    node_name[n] = candidate;
  }

  // Model cards.
  std::map<std::string, std::string> models;  // key -> model name
  for (const Mosfet& m : circuit.mosfets()) {
    const std::string key = model_key(m.params);
    if (models.count(key) == 0) {
      models[key] = (m.params.type == MosType::kNmos ? "nmod" : "pmod") +
                    std::to_string(models.size());
    }
  }
  for (const auto& [key, name] : models) {
    // Recover one representative card for this key.
    const MosParams* params = nullptr;
    for (const Mosfet& m : circuit.mosfets()) {
      if (model_key(m.params) == key) {
        params = &m.params;
        break;
      }
    }
    ensure(params != nullptr, "write_spice_deck: model bookkeeping error");
    os << ".model " << name << ' ' << (params->type == MosType::kNmos ? "nmos" : "pmos")
       << " (level=1 vto=" << (params->type == MosType::kNmos ? params->vt0 : -params->vt0)
       << " kp=" << params->kp << " gamma=" << params->gamma << " phi=" << params->phi
       << " lambda=" << params->lambda << ")\n";
  }

  int index = 0;
  for (const Mosfet& m : circuit.mosfets()) {
    os << "m" << index++ << ' ' << node_name[m.d] << ' ' << node_name[m.g] << ' '
       << node_name[m.s] << ' ' << node_name[m.b] << ' ' << models[model_key(m.params)]
       << " w=" << m.w << " l=" << m.l << "\n";
  }
  index = 0;
  for (const Resistor& r : circuit.resistors()) {
    os << "r" << index++ << ' ' << node_name[r.a] << ' ' << node_name[r.b] << ' '
       << r.resistance << "\n";
  }
  index = 0;
  for (const Capacitor& c : circuit.capacitors()) {
    os << "c" << index++ << ' ' << node_name[c.a] << ' ' << node_name[c.b] << ' '
       << c.capacitance << "\n";
  }
  index = 0;
  for (const VSource& v : circuit.vsources()) {
    os << "v" << index++ << ' ' << node_name[v.node] << " 0 ";
    if (v.voltage.size() == 1) {
      os << "dc " << v.voltage.value_at(0) << "\n";
    } else {
      os << "pwl(";
      for (std::size_t i = 0; i < v.voltage.size(); ++i) {
        if (i) os << ' ';
        os << v.voltage.time_at(i) << ' ' << v.voltage.value_at(i);
      }
      os << ")\n";
    }
  }
  index = 0;
  for (const ISource& src : circuit.isources()) {
    os << "i" << index++ << ' ' << node_name[src.from] << ' ' << node_name[src.to] << " dc "
       << src.current.last_value() << "\n";
  }

  os << ".tran " << options.tstep << ' ' << options.tstop << "\n";
  os << ".end\n";
}

}  // namespace mtcmos::spice
