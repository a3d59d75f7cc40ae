#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "obs/json.hpp"

namespace dynaplat::obs {

namespace {

void atomic_add_double(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

constexpr std::size_t kSubMask = (std::size_t{1} << Histogram::kSubBits) - 1;

}  // namespace

Histogram::~Histogram() { delete[] buckets_.load(std::memory_order_relaxed); }

std::size_t Histogram::bucket_of(double v) {
  static_assert(kMinExp == -16 && kMaxExp == 64, "window literals below");
  if (!(v >= 0x1p-16)) return 0;  // zero, negatives, NaN, below the window
  if (v >= 0x1p64) return kBuckets - 1;
  // v is normal here: the biased exponent field is floor(log2 v), and the
  // mantissa's top kSubBits bits pick the sub-bucket.
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto exp = static_cast<std::size_t>((bits >> 52) - 1023 - kMinExp);
  return 1 + (exp << kSubBits) + ((bits >> (52 - kSubBits)) & kSubMask);
}

std::size_t Histogram::bucket_of(std::int64_t v) {
  if (v <= 0) return 0;
  // Keep only the leading one and the kSubBits bits after it: the double
  // conversion is then exact and cannot round up into the next bucket.
  const auto u = static_cast<std::uint64_t>(v);
  const int drop = std::max(0, 63 - std::countl_zero(u) - kSubBits);
  return bucket_of(static_cast<double>(u >> drop << drop));
}

double Histogram::bucket_lower(std::size_t i) {
  if (i == 0) return -std::numeric_limits<double>::infinity();
  if (i >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const int exp = kMinExp + static_cast<int>((i - 1) >> kSubBits);
  return std::ldexp(static_cast<double>(((i - 1) & kSubMask) + kSubMask + 1),
                    exp - kSubBits);
}

double Histogram::bucket_upper(std::size_t i) {
  if (i == 0) return std::ldexp(1.0, kMinExp);
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return bucket_lower(i + 1);
}

std::uint64_t Histogram::count_at(std::size_t i) const {
  const auto* buckets = buckets_.load(std::memory_order_acquire);
  return buckets == nullptr ? 0 : buckets[i].load(std::memory_order_relaxed);
}

std::atomic<std::uint64_t>* Histogram::install_buckets() {
  auto* fresh = new std::atomic<std::uint64_t>[kBuckets]();
  std::atomic<std::uint64_t>* current = nullptr;
  if (buckets_.compare_exchange_strong(current, fresh,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    return fresh;
  }
  delete[] fresh;  // another thread installed first
  return current;
}

void Histogram::record(std::size_t bucket, double v) {
  auto* buckets = buckets_.load(std::memory_order_acquire);
  if (buckets == nullptr) buckets = install_buckets();
  buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
  atomic_min_double(min_, v);
  atomic_max_double(max_, v);
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (!(p > 0.0)) return min();
  if (p >= 100.0) return max();
  const auto* buckets = buckets_.load(std::memory_order_acquire);
  if (buckets == nullptr) return max();
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(n) / 100.0)),
      1, n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i].load(std::memory_order_relaxed);
    if (seen < rank) continue;
    // The open-ended buckets have infinite midpoints, so the clamp turns
    // underflow into min and overflow into max.
    const double mid = 0.5 * (bucket_lower(i) + bucket_upper(i));
    return std::min(std::max(mid, min()), max());
  }
  return max();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key(name);
  auto it = counter_index_.find(key);
  if (it != counter_index_.end()) return *it->second;
  counters_.emplace_back(key);
  counter_index_.emplace(std::move(key), &counters_.back().instrument);
  return counters_.back().instrument;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key(name);
  auto it = gauge_index_.find(key);
  if (it != gauge_index_.end()) return *it->second;
  gauges_.emplace_back(key);
  gauge_index_.emplace(std::move(key), &gauges_.back().instrument);
  return gauges_.back().instrument;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key(name);
  auto it = histogram_index_.find(key);
  if (it != histogram_index_.end()) return *it->second;
  histograms_.emplace_back(key);
  histogram_index_.emplace(std::move(key), &histograms_.back().instrument);
  return histograms_.back().instrument;
}

std::size_t MetricsRegistry::counter_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size();
}

std::size_t MetricsRegistry::gauge_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_.size();
}

std::size_t MetricsRegistry::histogram_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_.size();
}

std::string MetricsRegistry::snapshot_json() const {
  json::Writer out;
  write_json(out);
  return out.take();
}

void MetricsRegistry::write_json(json::Writer& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto by_name = [](const auto& family) {
    std::vector<const typename std::decay_t<decltype(family)>::value_type*>
        entries;
    entries.reserve(family.size());
    for (const auto& entry : family) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->name < b->name; });
    return entries;
  };

  out.begin_object();
  out.key("counters").begin_object();
  for (const auto* entry : by_name(counters_)) {
    out.member(entry->name, entry->instrument.value());
  }
  out.end_object();
  out.key("gauges").begin_object();
  for (const auto* entry : by_name(gauges_)) {
    out.member(entry->name, entry->instrument.value());
  }
  out.end_object();
  out.key("histograms").begin_object();
  for (const auto* entry : by_name(histograms_)) {
    const Histogram& h = entry->instrument;
    out.key(entry->name).begin_object();
    out.member("count", h.count()).member("sum", h.sum());
    if (!h.empty()) {
      out.member("min", h.min())
          .member("max", h.max())
          .member("p50", h.percentile(50))
          .member("p95", h.percentile(95))
          .member("p99", h.percentile(99));
    }
    // Non-empty buckets only, each by its exclusive upper edge.
    out.key("buckets").begin_array();
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h.count_at(i);
      if (n == 0) continue;
      const double lt = Histogram::bucket_upper(i);
      out.begin_object().key("lt");
      std::isfinite(lt) ? out.value(lt) : out.value("inf");
      out.member("count", n).end_object();
    }
    out.end_array().end_object();
  }
  out.end_object();
  out.end_object();
}

}  // namespace dynaplat::obs
