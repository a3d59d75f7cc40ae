#include "sim/random.hpp"

#include <cmath>

#include "obs/fnv.hpp"

namespace dynaplat::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Random::Random(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Random::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Random::next_below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Debiased modulo (Lemire-style rejection kept simple): retry on the
  // biased tail. Expected retries < 1 for all bounds.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Random::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Random::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Random::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

double Random::exponential(double mean) {
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Random::normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  spare_normal_ = radius * std::sin(theta);
  has_spare_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

bool Random::chance(double p) { return uniform01() < p; }

Random Random::fork() { return Random(next_u64()); }

Random Random::stream(std::uint64_t seed, std::uint64_t stream_id) {
  // FNV-1a over the little-endian bytes of the (seed, stream_id) pair,
  // then a splitmix64 scramble (the Random constructor runs its own
  // splitmix chain on top, so stream(s, 0) also differs from Random(s)
  // and from fork()s of it). The offset basis is distinct from the
  // fingerprint fold's, so stream derivation and log hashing can never
  // alias. Hashing the pair jointly replaces the old additive
  // golden-ratio stride, which collided for *related* seeds:
  // seed + γ·(i+1) made stream(s + γ, i) identical to stream(s, i + 1) —
  // exactly the family the fuzzer's seed splicing walks through.
  std::uint64_t h =
      obs::fnv1a_u64(obs::fnv1a_u64(obs::kFnvOffset, seed), stream_id);
  return Random(splitmix64(h));
}

}  // namespace dynaplat::sim
