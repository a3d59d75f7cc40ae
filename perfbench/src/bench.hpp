// Shared vocabulary of the repository benchmark.
//
// A workload is a fixed, seed-generated batch of work (a "unit") that the
// loop in main.cpp repeats until the run's time budget is spent. Every
// repetition must reproduce the same simulated results bit for bit; the
// loop compares the fingerprints, simulated metrics and layer counters of
// every unit against a warm-up unit. Host-time metrics are order statistics
// over the units (main.cpp says which).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One named 64-bit fingerprint of simulated results.
struct Fingerprint {
  std::string name;
  std::uint64_t value = 0;
};

/// Outcome of one repetition of a workload's unit of work.
struct UnitResult {
  /// Host set-up time: until the first simulated event.
  double setup_s = 0.0;
  /// Host time the throughput is measured over (the unit minus its
  /// one-off set-up; a sweep pays set-up per scenario and counts it).
  double run_s = 0.0;
  /// Simulated seconds covered by the unit.
  double sim_s = 0.0;
  /// Workload items completed (sim seconds, sessions, scenarios).
  double items = 0.0;
  /// Failure accounting: operations attempted and failed.
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  /// Per-item host latencies in ms (campaign scenarios), may be empty.
  std::vector<double> item_ms;
  /// Per-item set-up samples in s (campaign scenarios), may be empty.
  std::vector<double> setup_samples;
  /// Host-time layer figures measured by the program itself (not spans).
  std::vector<Metric> host_layer;
  /// Simulated results: must be identical in every unit, traced or not.
  std::vector<Fingerprint> fingerprints;
  std::vector<Metric> sim_metrics;
  std::vector<Metric> counters;
  /// Correctness: empty when every check of the unit passed.
  std::vector<std::string> errors;
};

/// 64-bit FNV-1a fold, the repository's fingerprint convention.
class Fnv {
 public:
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void mix_double(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample set; 0 when
/// empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Hardware threads and the thread count a workload may use:
/// min(4, hardware threads).
unsigned hardware_threads();
unsigned worker_threads();

/// Workload units. Each constructor derives all inputs from `seed`.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Unit of the throughput figure ("sim_s", "sessions", "scenarios").
  virtual const char* item_name() const = 0;
  /// Threads a unit runs on (1 unless the workload fans out).
  virtual unsigned threads() const { return 1; }
  /// Checks made once per run outside the timed units (e.g. serial vs
  /// threaded sweep equality). Appends failures to `errors`.
  virtual void check_once(std::vector<std::string>& errors) { (void)errors; }
  /// Runs one unit.
  virtual UnitResult run_unit() = 0;
  /// Workload-specific end-to-end metrics derived from the units
  /// (median-based), printed in the report.
  virtual std::vector<Metric> report_metrics(
      const std::vector<UnitResult>& units) const = 0;
};

}  // namespace perfbench
