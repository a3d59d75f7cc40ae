// Deterministic pseudo-random source for simulations.
//
// dynaplat requires bit-identical re-execution of a scenario given the same
// seed (DESIGN.md "deterministic simulation"): the backend validates a
// schedule by simulating it against the installing vehicle's configuration,
// which is only meaningful if the simulation is reproducible. We therefore
// avoid std::default_random_engine (implementation-defined) and carry our own
// xoshiro256** generator.
#pragma once

#include <cstdint>

namespace dynaplat::sim {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm),
/// seeded via splitmix64. Deterministic across platforms and toolchains.
class Random {
 public:
  explicit Random(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound). bound == 0 yields 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Normal-distributed value (Box-Muller; consumes two uniforms per pair).
  double normal(double mean, double stddev);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Forks an independent generator whose stream does not overlap with this
  /// one for any realistic draw count (distinct splitmix64 seed chain).
  Random fork();

  /// Derives the `stream_id`-th independent generator of a seed family
  /// without consuming state anywhere: stream(s, i) is a pure function of
  /// (s, i). Parallel workers each take their own stream so results stay
  /// reproducible regardless of thread count or scheduling (the seed-
  /// splitting scheme of sim::ScenarioSweep, see DESIGN.md).
  /// The pair is hashed jointly (FNV-1a, distinct offset basis), so
  /// streams stay decorrelated even across related seeds — e.g. the
  /// spliced seeds the chaos fuzzer derives from corpus parents.
  static Random stream(std::uint64_t seed, std::uint64_t stream_id);

 private:
  std::uint64_t state_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace dynaplat::sim
