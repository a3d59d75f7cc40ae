// Derives the workloads' independent input streams from the run seed.
#pragma once

#include <cstdint>

namespace perfbench {

/// SplitMix64 finalizer over (seed, stream): distinct streams of one seed
/// and equal streams of distinct seeds give unrelated values.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
                    0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

}  // namespace perfbench
