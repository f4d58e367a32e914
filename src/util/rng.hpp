#pragma once
// Deterministic random number generation for reproducible experiments.
//
// All stochastic components (vector sampling, randomized search) take an
// explicit Rng so that every experiment in the repo is bit-reproducible
// from its seed.  Wraps std::mt19937_64.

#include <cstdint>
#include <random>
#include <stdexcept>

#include "util/error.hpp"

namespace mtcmos {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x6d7463'6d6f73ULL) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    // Built only on failure: a sampled transition set draws twice per row.
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo must be <= hi");
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi) {
    require(lo < hi, "Rng::uniform_real: lo must be < hi");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Fair coin flip.
  bool coin() { return uniform_int(0, 1) == 1; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mtcmos
