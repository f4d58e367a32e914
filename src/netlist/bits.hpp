#pragma once
// Bit-vector helpers for driving netlist inputs from integer operands.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/error.hpp"

namespace mtcmos::netlist {

/// LSB-first bits of `value`, `width` wide.
inline std::vector<bool> bits_from_uint(std::uint64_t value, int width) {
  // Built only on failure: a transition set calls this twice per row.
  if (width <= 0 || width > 64) {
    throw std::invalid_argument("bits_from_uint: width must be in [1, 64]");
  }
  std::vector<bool> bits(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) bits[static_cast<std::size_t>(i)] = ((value >> i) & 1u) != 0;
  return bits;
}

/// Inverse of bits_from_uint.
inline std::uint64_t uint_from_bits(const std::vector<bool>& bits) {
  require(bits.size() <= 64, "uint_from_bits: too many bits");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) value |= (1ull << i);
  }
  return value;
}

/// Concatenate two operand bit vectors (e.g. X then Y of a multiplier).
inline std::vector<bool> concat_bits(const std::vector<bool>& a, const std::vector<bool>& b) {
  std::vector<bool> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace mtcmos::netlist
