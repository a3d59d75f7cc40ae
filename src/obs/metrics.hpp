// Vehicle-wide metrics registry: counters, gauges and log-linear
// histograms with interned names and lock-free updates.
//
// Registration (name -> instrument) takes a mutex once; the returned
// references are stable for the registry's lifetime (deque storage), so hot
// paths cache them and update through relaxed atomics — safe from
// sim::ScenarioSweep workers (DSE fitness evaluation, campaign sweeps) as
// well as on the simulator thread.
//
// snapshot_json() renders the whole registry as one JSON document, which
// platform::DiagnosticsService surfaces next to the vehicle fault store;
// write_json() writes the same object into a larger document.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dynaplat::obs {

namespace json {
class Writer;
}

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

/// Log-linear histogram, the one distribution type: a sample's bucket is
/// its binary exponent plus the top kSubBits mantissa bits, so every
/// bucket spans 1/16 of an octave and `observe` is O(1). Count, sum, min
/// and max are exact; percentiles come from the buckets. Zero, negatives,
/// NaN and values below the window share the underflow bucket; values at
/// or above 2^64 share the overflow bucket. The bucket array (~10 KB) is
/// installed on the first observe, so histograms nobody feeds cost no
/// memory. Updates are relaxed atomics, safe from any thread.
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kMinExp = -16;  ///< window is [2^kMinExp, 2^kMaxExp)
  static constexpr int kMaxExp = 64;
  static constexpr std::size_t kBuckets =
      2 + (static_cast<std::size_t>(kMaxExp - kMinExp) << kSubBits);

  Histogram() = default;
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) { record(bucket_of(v), v); }
  /// Integer samples bucket by their exact bits, so an int64 above 2^53
  /// lands where its value lies rather than where its double rounds to.
  void observe(std::int64_t v) {
    record(bucket_of(v), static_cast<double>(v));
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  bool empty() const { return count() == 0; }
  /// Sum in observe order (bit-identical to a plain `+=` loop).
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const {
    return empty() ? 0.0 : min_.load(std::memory_order_relaxed);
  }
  double max() const {
    return empty() ? 0.0 : max_.load(std::memory_order_relaxed);
  }
  double mean() const {
    return empty() ? 0.0 : sum() / static_cast<double>(count());
  }
  /// Nearest-rank percentile, p in [0, 100]: the midpoint of the bucket
  /// holding rank ceil(p/100 * count), clamped to [min, max], so the
  /// estimate is within 2^-(kSubBits+1) (3.1%) of the exact sample.
  /// p <= 0 gives min, p >= 100 max; 0 when empty.
  double percentile(double p) const;

  static std::size_t bucket_of(double v);
  static std::size_t bucket_of(std::int64_t v);
  /// Bucket i covers [bucket_lower(i), bucket_upper(i)); the underflow
  /// bucket's lower edge is -inf, the overflow bucket's upper edge +inf.
  static double bucket_lower(std::size_t i);
  static double bucket_upper(std::size_t i);
  std::uint64_t count_at(std::size_t i) const;

 private:
  void record(std::size_t bucket, double v);
  std::atomic<std::uint64_t>* install_buckets();

  std::atomic<std::atomic<std::uint64_t>*> buckets_{nullptr};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
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
  Histogram& histogram(std::string_view name);

  std::size_t counter_count() const;
  std::size_t gauge_count() const;
  std::size_t histogram_count() const;

  /// Whole-registry snapshot as a JSON object with "counters", "gauges" and
  /// "histograms" sections, names sorted for deterministic output.
  std::string snapshot_json() const;
  /// Writes the snapshot object as the writer's next value.
  void write_json(json::Writer& out) const;

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
