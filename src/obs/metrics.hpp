// Vehicle-wide metrics registry: counters, gauges and fixed-bucket
// histograms with interned names and lock-free updates.
//
// Registration (name -> instrument) takes a mutex once; the returned
// references are stable for the registry's lifetime (deque storage), so hot
// paths cache them and update through relaxed atomics — safe from
// sim::ScenarioSweep workers (DSE fitness evaluation, campaign sweeps) as
// well as on the simulator thread.
//
// snapshot_json() renders the whole registry as one JSON document, which
// platform::DiagnosticsService surfaces next to the vehicle fault store.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dynaplat::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (utilization, queue depth, rate estimates).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i], the last
/// implicit bucket counts the overflow. Bounds are fixed at registration so
/// observation is a branchless-ish scan over a handful of doubles plus one
/// relaxed increment.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v);

  std::uint64_t total_count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = total_count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  /// Nearest-rank quantile estimate from the bucket counts: the upper bound
  /// of the bucket holding rank ceil(q * count), clamped to the observed
  /// max (the overflow bucket reports the max). 0 when empty.
  double quantile(double q) const;

  /// Number of buckets including the overflow bucket.
  std::size_t bucket_count() const { return counts_.size(); }
  /// Inclusive upper bound of bucket i (infinity for the overflow bucket).
  double upper_bound(std::size_t i) const;
  std::uint64_t count_at(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;  // sorted ascending
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. References stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` is only used on first registration; later callers get
  /// the existing histogram regardless of the bounds they pass.
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds = latency_buckets_ns());

  /// Default bucket ladder for nanosecond latencies: 1us .. 10s, decades.
  static std::vector<double> latency_buckets_ns();

  std::size_t counter_count() const;
  std::size_t gauge_count() const;
  std::size_t histogram_count() const;

  /// Whole-registry snapshot as a JSON object with "counters", "gauges" and
  /// "histograms" sections, names sorted for deterministic output.
  std::string snapshot_json() const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    T instrument;
    template <typename... Args>
    explicit Named(std::string n, Args&&... args)
        : name(std::move(n)), instrument(std::forward<Args>(args)...) {}
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Counter*> counter_index_;
  std::unordered_map<std::string, Gauge*> gauge_index_;
  std::unordered_map<std::string, Histogram*> histogram_index_;
  std::deque<Named<Counter>> counters_;
  std::deque<Named<Gauge>> gauges_;
  std::deque<Named<Histogram>> histograms_;
};

}  // namespace dynaplat::obs
