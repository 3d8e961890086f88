// Deterministic pseudo-random number generation.
//
// The simulator must be bit-for-bit reproducible across runs and platforms,
// so all randomized components (workload data generation, fault schedules,
// random cache replacement) draw from an explicitly seeded SplitMix64 stream
// passed in by the owner. std::mt19937 is avoided because distribution
// implementations differ across standard libraries.
#pragma once

#include <cassert>

#include "common/types.h"

namespace reese {

/// SplitMix64: tiny, fast, high-quality 64-bit generator with a one-word
/// state. Passes BigCrush when used as a stream.
class SplitMix64 {
 public:
  explicit SplitMix64(u64 seed) : state_(seed) {}

  /// Next raw 64-bit value.
  u64 next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform value in [0, bound). bound must be nonzero.
  u64 next_below(u64 bound) {
    assert(bound != 0);
    // Multiply-shift rejection-free mapping (Lemire); bias is < 2^-64 * bound,
    // irrelevant for simulation workloads.
    const unsigned __int128 product =
        static_cast<unsigned __int128>(next()) * bound;
    return static_cast<u64>(product >> 64);
  }

  /// Uniform value in [lo, hi] inclusive.
  u64 next_range(u64 lo, u64 hi) {
    assert(lo <= hi);
    return lo + next_below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool next_bool(double p) { return next_double() < p; }

  /// Derive an independent child stream (for giving submodules their own
  /// reproducible sequence).
  SplitMix64 fork() { return SplitMix64(next() ^ 0xA5A5A5A55A5A5A5AULL); }

 private:
  u64 state_;
};

}  // namespace reese
