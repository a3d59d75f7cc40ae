// Runtime monitoring (paper Sec. 3.4).
//
// Watches the key parameters of deterministic applications — period,
// deadline, jitter, memory usage — against their modeled contracts, records
// the conditions leading to a detected fault (flight recorder) and forwards
// fault reports to the manufacturer backend when a connection is available.
// The same samples accumulate into a certification dataset ("runtime
// monitoring can generate data sets, efficiently supporting the safety
// certification processes").
//
// Monitoring itself costs CPU (one sampling work item per period), so its
// overhead is measurable and ablatable (E10).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "os/ecu.hpp"
#include "sim/trace.hpp"

namespace dynaplat::monitor {

struct MonitorConfig {
  sim::Duration sampling_period = 10 * sim::kMillisecond;
};

/// The monitored contract of one deterministic task, drawn from the model.
struct Contract {
  os::TaskId task = os::kInvalidTask;
  /// Core hosting the task (index into the ECU's processors). Resolved at
  /// sample time: an ECU crash/restart rebuilds its processors, so a
  /// cached Processor pointer would dangle.
  std::size_t core = 0;
  std::string name;
  sim::Duration period = 0;
  sim::Duration deadline = 0;
  /// Maximum tolerated response-time spread (max - min) once warmed up.
  sim::Duration max_response_jitter = 0;
  /// Deadline-miss ratio above which a fault is raised.
  double max_miss_ratio = 0.0;
  /// Memory ceiling (checked against the app's process when set).
  std::size_t max_memory_bytes = 0;
  os::ProcessId process = os::kInvalidProcess;
};

struct FaultRecord {
  sim::Time at = 0;
  std::string subject;
  std::string kind;  ///< "deadline_miss" | "jitter" | "memory" | "starvation"
  double value = 0.0;
  double limit = 0.0;
  /// Flight-recorder excerpt: the most recent trace records before the
  /// fault, for off-board analysis.
  std::vector<sim::TraceRecord> context;
};

class RuntimeMonitor {
 public:
  RuntimeMonitor(os::Ecu& ecu, MonitorConfig config = {});
  ~RuntimeMonitor();

  void watch(Contract contract);
  void unwatch(os::TaskId task);

  void start();
  void stop();
  bool running() const { return running_; }

  /// All faults detected so far.
  const std::vector<FaultRecord>& faults() const { return faults_; }

  /// "If an internet connection is available, transfer to the manufacturer":
  /// a sink invoked on each fault (e.g. the backend uplink). Replaces all
  /// previously registered sinks.
  void set_report_sink(std::function<void(const FaultRecord&)> sink) {
    sinks_.clear();
    sinks_.push_back(std::move(sink));
  }

  /// Registers an additional sink without displacing existing ones (several
  /// platform services — diagnostics uplink, degradation manager — may each
  /// need to observe faults).
  void add_report_sink(std::function<void(const FaultRecord&)> sink) {
    sinks_.push_back(std::move(sink));
  }

  /// Sampling passes executed (cost accounting for E10).
  std::uint64_t samples_taken() const { return samples_taken_; }

  /// Certification dataset: per-task observed timing envelope vs. contract.
  std::string certification_report() const;

 private:
  struct Watch {
    Contract contract;
    std::uint64_t last_misses = 0;
    std::uint64_t last_completions = 0;
    bool primed = false;  ///< baselines recorded by at least one sample
  };

  void sample();
  void raise(const std::string& subject, const std::string& kind,
             double value, double limit);

  os::Ecu& ecu_;
  MonitorConfig config_;
  std::map<os::TaskId, Watch> watches_;
  std::vector<FaultRecord> faults_;
  std::vector<std::function<void(const FaultRecord&)>> sinks_;
  sim::EventId sampler_;
  bool running_ = false;
  std::uint64_t samples_taken_ = 0;
};

}  // namespace dynaplat::monitor
