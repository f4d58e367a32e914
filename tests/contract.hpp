#pragma once
// One comparison for every bit-identity check in the tests: an output
// renders as text lines holding every bit (transitions as 0/1 strings,
// doubles as hex floats), and same() names the first line that differs:
//
//   EXPECT_TRUE(test::same(resumed, reference)) << "after the resume";

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sizing/eval_types.hpp"
#include "util/failure.hpp"

namespace mtcmos::test {

using Lines = std::vector<std::string>;

inline std::string bits(const std::vector<bool>& v) {
  std::string out;
  for (const bool b : v) out += b ? '1' : '0';
  return out;
}

inline std::string hex(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", d);
  return buf;
}

inline Lines lines(const std::string& line) { return {line}; }

inline Lines lines(const sizing::VectorPair& p) { return {bits(p.v0) + '-' + bits(p.v1)}; }

inline Lines lines(const sizing::VectorDelay& d) {
  return {lines(d.pair)[0] + ' ' + hex(d.delay_cmos) + ' ' + hex(d.delay_mtcmos) + ' ' +
          hex(d.degradation_pct)};
}

inline Lines lines(const sizing::SizingResult& r) {
  return {"wl " + hex(r.wl) + " degradation " + hex(r.degradation_pct) + " binding " +
          lines(r.binding_vector)[0]};
}

/// Counts, the rung histogram, per-code counts, and each kept failure's
/// item, code and site.
inline Lines lines(const SweepReport& r) {
  std::string rungs = "rungs", codes = "codes";
  for (const std::size_t n : r.rung_histogram) rungs += ' ' + std::to_string(n);
  for (const std::size_t n : r.code_counts) codes += ' ' + std::to_string(n);
  Lines out = {"report total " + std::to_string(r.total) + " succeeded " +
                   std::to_string(r.succeeded) + " recovered " + std::to_string(r.recovered) +
                   " failed " + std::to_string(r.failed) + " dropped " +
                   std::to_string(r.failures_dropped),
               rungs, codes};
  for (const auto& [index, info] : r.failures) {
    out.push_back("failure " + std::to_string(index) + ' ' + to_string(info.code) + ' ' +
                  info.site);
  }
  return out;
}

inline void append(Lines& to, const Lines& more) { to.insert(to.end(), more.begin(), more.end()); }

template <typename T>
Lines lines(const std::vector<T>& items) {
  Lines out;
  for (const T& item : items) append(out, lines(item));
  return out;
}

/// Success when `got` and `want` render to the same lines.
template <typename T>
::testing::AssertionResult same(const T& got, const T& want) {
  const Lines a = lines(got);
  const Lines b = lines(want);
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) {
      return ::testing::AssertionFailure()
             << "line " << i << ": got \"" << a[i] << "\", want \"" << b[i] << '"';
    }
  }
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << a.size() << " lines, want " << b.size();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace mtcmos::test
