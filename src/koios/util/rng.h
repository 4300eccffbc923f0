// Deterministic random number generation. Every stochastic component in the
// library (embedding synthesis, corpus generation, query sampling) draws
// from an explicitly seeded Rng so experiments are reproducible bit-for-bit
// given their seed.
#ifndef KOIOS_UTIL_RNG_H_
#define KOIOS_UTIL_RNG_H_

#include <cstdint>

namespace koios::util {

/// xoshiro256** PRNG seeded via SplitMix64. Not cryptographic; fast and
/// high quality for simulation workloads.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire's rejection-free
  /// multiply-shift reduction with a rejection step to remove modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Standard normal via Box-Muller (cached second value).
  double NextGaussian();

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Bernoulli trial.
  bool NextBool(double p_true);

  /// Derive an independent child generator (e.g. one per worker thread)
  /// from this generator's stream.
  Rng Fork();

 private:
  uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace koios::util

#endif  // KOIOS_UTIL_RNG_H_
