// Measurement accumulators used by experiments and runtime monitoring.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dynaplat::sim {

/// Streaming summary statistics (Welford) plus percentiles over the retained
/// sample vector. Samples are doubles; callers pick the unit.
class Stats {
 public:
  void add(double x);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double min() const;
  double max() const;
  double mean() const;
  /// Sample standard deviation (n-1 denominator); 0 for n < 2.
  double stddev() const;
  double sum() const { return sum_; }

  /// Percentile of the sorted sample set, interpolated linearly between the
  /// two samples around rank p/100 * (n - 1). p in [0, 100]; p <= 0 gives
  /// the minimum, p >= 100 the maximum. Returns 0 for an empty accumulator.
  double percentile(double p) const;

  /// "min=.. mean=.. p99=.. max=.. (n=..)" one-line summary.
  std::string summary() const;

  void clear();

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;  // lazily rebuilt percentile cache
  mutable bool sorted_valid_ = false;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dynaplat::sim
