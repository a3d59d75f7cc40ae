#include "sim/stats.hpp"

#include <cmath>
#include <sstream>

namespace dynaplat::sim {

void Stats::add(double x) {
  if (samples_.empty()) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  samples_.push_back(x);
  sorted_valid_ = false;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(samples_.size());
  m2_ += delta * (x - mean_);
}

double Stats::min() const { return samples_.empty() ? 0.0 : min_; }
double Stats::max() const { return samples_.empty() ? 0.0 : max_; }
double Stats::mean() const { return samples_.empty() ? 0.0 : mean_; }

double Stats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(samples_.size() - 1));
}

double Stats::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  if (p <= 0.0) return sorted_.front();
  if (p >= 100.0) return sorted_.back();
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

std::string Stats::summary() const {
  std::ostringstream os;
  os << "min=" << min() << " mean=" << mean() << " p50=" << percentile(50)
     << " p99=" << percentile(99) << " max=" << max() << " (n=" << count()
     << ")";
  return os.str();
}

void Stats::clear() {
  samples_.clear();
  sorted_.clear();
  sorted_valid_ = false;
  mean_ = m2_ = sum_ = min_ = max_ = 0.0;
}

}  // namespace dynaplat::sim
