// Task and job definitions for the ECU scheduling model.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dynaplat::os {

using TaskId = std::uint32_t;
inline constexpr TaskId kInvalidTask = 0;

/// The paper's two application classes (Sec. 3.1). Deterministic tasks carry
/// hard timing contracts the platform must enforce; non-deterministic tasks
/// are best-effort.
enum class TaskClass : std::uint8_t { kDeterministic, kNonDeterministic };

struct TaskConfig {
  std::string name;
  TaskClass task_class = TaskClass::kNonDeterministic;
  sim::Duration period = 0;    ///< 0 => aperiodic (released explicitly)
  sim::Duration deadline = 0;  ///< relative; 0 => implicit (== period)
  sim::Time offset = 0;        ///< first release
  std::uint64_t instructions = 1000;  ///< nominal work per job
  /// Actual work is uniform in [1-jitter, 1+jitter] * instructions.
  double execution_jitter = 0.0;
  /// Fixed-priority value; 0 is most urgent. Used by priority schedulers.
  int priority = 16;

  sim::Duration effective_deadline() const {
    return deadline > 0 ? deadline : period;
  }
};

/// Runs when a job *completes* (the functional effect of the job: reading
/// sensors, publishing signals, actuating). Scheduling only decides when.
using JobBody = std::function<void()>;

/// Per-task runtime measurements; also the data source for the paper's
/// runtime monitoring (Sec. 3.4).
struct TaskStats {
  obs::Histogram response_time;  ///< release -> completion, ns
  std::uint64_t releases = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t preemptions = 0;

  double miss_ratio() const {
    return completions == 0
               ? 0.0
               : static_cast<double>(deadline_misses) /
                     static_cast<double>(completions);
  }
};

}  // namespace dynaplat::os
