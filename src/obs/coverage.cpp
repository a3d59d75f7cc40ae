#include "obs/coverage.hpp"

#include <algorithm>

#include "obs/fnv.hpp"
#include "obs/json.hpp"

namespace dynaplat::obs {

std::uint32_t CoverageMap::key(std::string_view name) {
  auto it = index_.find(std::string{name});
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  counts_.push_back(0);
  index_.emplace(names_.back(), id);
  return id;
}

std::uint64_t CoverageMap::count(std::string_view name) const {
  auto it = index_.find(std::string{name});
  return it == index_.end() ? 0 : counts_[it->second];
}

std::size_t CoverageMap::unique_hit_count() const {
  std::size_t covered = 0;
  for (const std::uint64_t count : counts_) {
    if (count > 0) ++covered;
  }
  return covered;
}

std::vector<std::size_t> CoverageMap::sorted_order() const {
  std::vector<std::size_t> order(names_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return names_[a] < names_[b];
  });
  return order;
}

std::uint64_t CoverageMap::fingerprint() const {
  std::uint64_t hash = kFingerprintOffset;
  for (std::size_t i : sorted_order()) {
    hash = fnv1a(hash, names_[i]);
    hash = fnv1a(hash, &counts_[i], sizeof(counts_[i]));
  }
  return hash;
}

void CoverageMap::merge_from(const CoverageMap& other) {
  for (std::size_t i = 0; i < other.names_.size(); ++i) {
    if (other.counts_[i] == 0) {
      key(other.names_[i]);  // preserve reached-key sets even at count 0
    } else {
      hit(key(other.names_[i]), other.counts_[i]);
    }
  }
}

std::string CoverageMap::snapshot_json() const {
  json::Writer out;
  write_json(out);
  return out.take();
}

void CoverageMap::write_json(json::Writer& out) const {
  out.begin_object();
  for (std::size_t i : sorted_order()) out.member(names_[i], counts_[i]);
  out.end_object();
}

void CoverageMap::clear() {
  index_.clear();
  names_.clear();
  counts_.clear();
}

}  // namespace dynaplat::obs
