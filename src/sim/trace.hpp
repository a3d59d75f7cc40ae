// Structured event tracing — facade over the obs:: observability layer.
//
// Subsystems append typed records; tests and benches query them afterwards.
// The trace is the "flight recorder" substrate the paper's runtime
// monitoring (Sec. 3.4) stores fault conditions into.
//
// Since trace v2 the storage lives in obs::TraceBuffer: interned string
// ids, an optional ring-buffer bound, and per-category enable masks. This
// facade keeps the original string-based record API for cold paths and
// existing call sites; hot paths (os/processor, net buses) pre-intern ids
// and write through buffer() directly. Each Trace also owns the vehicle's
// obs::MetricsRegistry, so passing a sim::Trace* around wires up both
// tracing and metrics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/coverage.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace dynaplat::sim {

using TraceCategory = obs::Category;

/// A materialized (string-valued) view of one obs::Event. Produced on
/// demand by tail(); not the storage format.
struct TraceRecord {
  Time at = 0;
  TraceCategory category = TraceCategory::kTask;
  std::string source;  // e.g. "ecu0/task:brake_ctl" or "bus:can0"
  std::string event;   // e.g. "deadline_miss", "tx_start"
  std::int64_t value = 0;
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(obs::TraceBufferConfig config) : buffer_(config) {}

  /// When disabled, record() is a cheap no-op (overhead ablation, E10).
  void set_enabled(bool on) { buffer_.set_enabled(on); }
  bool enabled() const { return buffer_.enabled(); }
  /// Per-category check — call sites use this to skip building the source /
  /// event strings entirely when the category is masked off.
  bool enabled(TraceCategory cat) const { return buffer_.enabled(cat); }

  void record(Time at, TraceCategory cat, std::string_view source,
              std::string_view event, std::int64_t value = 0,
              obs::EventType type = obs::EventType::kInstant);

  /// The newest `n` retained records, oldest first, materialized with their
  /// strings (the flight-recorder read path).
  std::vector<TraceRecord> tail(std::size_t n) const;
  void clear() { buffer_.clear(); }

  /// Number of retained records matching category + event name.
  std::size_t count(TraceCategory cat, const std::string& event) const {
    return buffer_.count(cat, event);
  }

  /// The underlying event buffer, for pre-interning hot paths, ring-bound
  /// configuration and the Chrome trace exporter.
  obs::TraceBuffer& buffer() { return buffer_; }
  const obs::TraceBuffer& buffer() const { return buffer_; }

  /// The vehicle-wide metrics registry riding along with the trace.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// State-coverage counters riding along with the trace (degradation
  /// transitions, recovery phases, transport edge paths, ...).
  obs::CoverageMap& coverage() { return coverage_; }
  const obs::CoverageMap& coverage() const { return coverage_; }

  /// Publishes the obs layer's own health into the metrics registry:
  /// trace-ring retained/dropped/recorded, interner size, coverage keys.
  void refresh_self_metrics();

 private:
  TraceRecord materialize(const obs::Event& event) const;

  obs::TraceBuffer buffer_;
  obs::MetricsRegistry metrics_;
  obs::CoverageMap coverage_;
};

}  // namespace dynaplat::sim
