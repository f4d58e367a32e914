#include "waveform/trace.hpp"

#include <stdexcept>

#include "util/error.hpp"

namespace mtcmos {

Pwl& Trace::channel(const std::string& name) { return channels_[name]; }

bool Trace::has(const std::string& name) const { return channels_.count(name) != 0; }

const Pwl& Trace::get(const std::string& name) const {
  const auto it = channels_.find(name);
  if (it == channels_.end()) {
    throw std::invalid_argument("Trace::get: no channel named '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> Trace::names() const {
  std::vector<std::string> out;
  out.reserve(channels_.size());
  for (const auto& [name, w] : channels_) out.push_back(name);
  return out;
}

}  // namespace mtcmos
