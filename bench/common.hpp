// Shared helpers for the experiment benches (E1..E12).
//
// Each bench binary regenerates one table/figure of EXPERIMENTS.md as a
// tab-separated table on stdout, plus a short header naming the experiment;
// a bench with a machine-readable result writes it with write_result().
// Wall-clock helpers measure host cost where the experiment is about
// analysis/synthesis cost rather than simulated time.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <sys/utsname.h>
#endif

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace dynaplat::bench {

/// Fixed-width tab-separated table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%s%s", i ? "\t" : "", columns_[i].c_str());
    }
    std::printf("\n");
  }

  void row(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%s%s", i ? "\t" : "", cells[i].c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> columns_;
};

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Integral overload (size_t/uint64_t/int/...), kept out of the double
/// overload's way.
template <typename T>
  requires std::is_integral_v<T>
inline std::string fmt(T v) {
  return std::to_string(v);
}

/// Host wall-clock stopwatch (for analysis-cost experiments).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void banner(const char* experiment, const char* title) {
  std::printf("### %s -- %s\n", experiment, title);
}

// --- Noise-resistant repetition ---------------------------------------------
//
// Wall-clock numbers on a shared box jitter upward (preemption, frequency
// scaling) but never downward below the true cost, so throughput-style
// results report the *minimum* over N repetitions and latency-style results
// report percentiles over the per-rep samples.

/// p50/p95/max over a sample set (obs::Histogram nearest-rank; empty
/// input yields zeros).
struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

inline Percentiles percentiles(const std::vector<double>& samples) {
  obs::Histogram histogram;
  for (const double sample : samples) histogram.observe(sample);
  return {histogram.percentile(50), histogram.percentile(95),
          histogram.max()};
}

/// Runs `fn` `reps` times and returns every per-rep wall time in ms.
template <typename Fn>
inline std::vector<double> repeat_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    fn();
    samples.push_back(watch.elapsed_ms());
  }
  return samples;
}

/// Best-of-N wall time in ms — the standard throughput measurement.
template <typename Fn>
inline double min_elapsed_ms(int reps, Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    fn();
    const double ms = watch.elapsed_ms();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

// --- Host context ------------------------------------------------------------
//
// Wall-clock results mean nothing without the machine they were taken on:
// every BENCH_*.json embeds a "host" object (write_result below) so
// successive snapshots are comparable (or visibly not).

struct HostInfo {
  unsigned hardware_threads = 0;
  std::string cpu_model;  ///< /proc/cpuinfo "model name" (empty if unknown)
  std::string os;         ///< uname sysname + release (empty if unknown)
};

inline HostInfo host_info() {
  HostInfo info;
  info.hardware_threads = std::thread::hardware_concurrency();
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        std::string model = colon + 1;
        while (!model.empty() && (model.front() == ' ' || model.front() == '\t'))
          model.erase(model.begin());
        while (!model.empty() && (model.back() == '\n' || model.back() == '\r'))
          model.pop_back();
        info.cpu_model = std::move(model);
      }
      break;
    }
    std::fclose(f);
  }
  utsname names{};
  if (uname(&names) == 0) {
    info.os = std::string(names.sysname) + " " + names.release;
  }
#endif
  return info;
}

/// Peak resident set size in kB (/proc/self/status VmHWM; 0 if unknown).
inline std::size_t peak_rss_kb() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    std::size_t kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
    }
    std::fclose(f);
    return kb;
  }
#endif
  return 0;
}

/// `v` rounded to `digits` decimals (the same decimal a "%.<digits>f"
/// column shows), for result values quoted at a fixed precision.
inline double rounded(double v, int digits) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::fixed, digits);
  if (ec != std::errc{}) return v;
  double out = v;
  std::from_chars(buf, end, out);
  return out;
}

/// Writes one BENCH_*.json result, `{"experiment": ..., "host": {...},`
/// then the members `fill(writer)` adds `}`, and prints the path. Returns
/// false, with a message on stderr, when the file cannot be written.
template <typename Fill>
bool write_result(const std::string& path, std::string_view experiment,
                  Fill&& fill) {
  const HostInfo host = host_info();
  obs::json::Writer out;
  out.begin_object().member("experiment", experiment);
  out.key("host")
      .begin_object()
      .member("hardware_threads", host.hardware_threads)
      .member("cpu_model", host.cpu_model)
      .member("os", host.os)
      .end_object();
  fill(out);
  out.end_object();
  if (!obs::json::write_file(path, out.take())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace dynaplat::bench
