#include "waveform/vcd.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mtcmos {

namespace {

constexpr double kTimeUnit = 1e-12;     ///< seconds per VCD tick ("1ps")
constexpr double kValueEpsilon = 1e-9;  ///< smaller changes are not emitted [V/A]

/// Compact printable VCD identifier for variable index i.
std::string vcd_id(std::size_t i) {
  std::string id;
  do {
    id.push_back(static_cast<char>('!' + i % 94));
    i /= 94;
  } while (i != 0);
  return id;
}

std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    out.push_back((c == ' ' || c == '$') ? '_' : c);
  }
  return out;
}

}  // namespace

void write_vcd(std::ostream& os, const Trace& trace) {
  const auto names = trace.names();
  require(!names.empty(), "write_vcd: trace has no channels");

  os << "$date mtcmos-kit export $end\n";
  os << "$timescale 1ps $end\n";
  os << "$scope module mtcmos $end\n";
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < names.size(); ++i) {
    ids.push_back(vcd_id(i));
    os << "$var real 64 " << ids.back() << ' ' << sanitize(names[i]) << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  // Event times: union of all channel breakpoints, in ticks.
  std::set<long long> ticks;
  for (const auto& name : names) {
    const Pwl& w = trace.get(name);
    for (std::size_t i = 0; i < w.size(); ++i) {
      ticks.insert(static_cast<long long>(std::llround(w.time_at(i) / kTimeUnit)));
    }
  }
  if (ticks.empty()) ticks.insert(0);

  std::vector<double> last(names.size(), std::nan(""));
  for (const long long tick : ticks) {
    const double t = static_cast<double>(tick) * kTimeUnit;
    std::string block;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const double v = trace.get(names[i]).sample(t);
      if (std::isnan(last[i]) || std::abs(v - last[i]) > kValueEpsilon) {
        block += 'r' + std::to_string(v) + ' ' + ids[i] + '\n';
        last[i] = v;
      }
    }
    if (!block.empty()) {
      os << '#' << tick << '\n' << block;
    }
  }
}

}  // namespace mtcmos
