// 64-bit FNV-1a: the repository's hash fold.
//
// Golden fingerprints (fleet, service, campaign, sweep merge, coverage),
// seed derivation and payload parity hashes all fold bytes through these
// helpers, so a pinned hash means the same function everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dynaplat::obs {

/// The standard FNV-1a 64-bit offset basis.
inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
/// Offset basis of the pinned fingerprints: the standard basis written in
/// decimal with its last digit missing (1469598103934665603, not
/// 14695981039346656037). Every golden was captured with it, so it stays.
inline constexpr std::uint64_t kFingerprintOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

/// Folds `size` bytes at `data`, in memory order, into `hash`.
inline std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                           std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

inline std::uint64_t fnv1a(std::uint64_t hash, std::string_view text) {
  return fnv1a(hash, text.data(), text.size());
}

/// Folds the eight little-endian bytes of `value` into `hash`.
inline std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFu;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace dynaplat::obs
