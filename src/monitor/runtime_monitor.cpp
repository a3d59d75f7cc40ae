#include "monitor/runtime_monitor.hpp"

#include <sstream>

namespace dynaplat::monitor {

namespace {

// CPU cost per sampling pass and watched task.
constexpr std::uint64_t kInstructionsPerTask = 500;
// Priority of the sampling work item. Top priority: the monitor is a tiny
// platform service that must observe even a fully overloaded ECU (an
// overload is exactly when its faults matter).
constexpr int kPriority = 0;
// Trace records kept as pre-fault context in each fault record.
constexpr std::size_t kFlightRecorderDepth = 32;

}  // namespace

RuntimeMonitor::RuntimeMonitor(os::Ecu& ecu, MonitorConfig config)
    : ecu_(ecu), config_(config) {}

RuntimeMonitor::~RuntimeMonitor() { stop(); }

void RuntimeMonitor::watch(Contract contract) {
  watches_[contract.task] = Watch{std::move(contract), 0, 0};
}

void RuntimeMonitor::unwatch(os::TaskId task) { watches_.erase(task); }

void RuntimeMonitor::start() {
  if (running_) return;
  running_ = true;
  sampler_ = ecu_.simulator().schedule_every(
      ecu_.simulator().now() + config_.sampling_period,
      config_.sampling_period, [this] {
        // The sampling pass itself is CPU work on the monitored ECU.
        const std::uint64_t cost =
            kInstructionsPerTask * std::max<std::uint64_t>(watches_.size(), 1);
        ecu_.processor().submit("monitor", cost, kPriority,
                                os::TaskClass::kNonDeterministic,
                                [this] { sample(); });
      });
}

void RuntimeMonitor::stop() {
  if (!running_) return;
  running_ = false;
  ecu_.simulator().cancel(sampler_);
  sampler_ = {};
}

void RuntimeMonitor::raise(const std::string& subject, const std::string& kind,
                           double value, double limit) {
  FaultRecord record;
  record.at = ecu_.simulator().now();
  record.subject = subject;
  record.kind = kind;
  record.value = value;
  record.limit = limit;
  sim::Trace* trace = ecu_.trace();
  if (trace != nullptr) {
    // Flight recorder: materialize only the newest N events — with a
    // ring-bounded trace this stays O(depth) regardless of run length.
    record.context = trace->tail(kFlightRecorderDepth);
    if (trace->enabled(sim::TraceCategory::kFault)) {
      trace->record(record.at, sim::TraceCategory::kFault,
                    ecu_.name() + "/" + subject, "monitor_" + kind,
                    static_cast<std::int64_t>(value));
    }
    trace->metrics()
        .counter("monitor." + ecu_.name() + ".faults." + kind)
        .add();
  }
  for (const auto& sink : sinks_) {
    if (sink) sink(record);
  }
  faults_.push_back(std::move(record));
}

void RuntimeMonitor::sample() {
  if (!running_) return;  // a pass already queued when stop() ran
  ++samples_taken_;
  for (auto& [task_id, watch] : watches_) {
    const Contract& contract = watch.contract;
    os::Processor& cpu = ecu_.processor(contract.core);
    if (!cpu.has_task(task_id)) {
      continue;  // task removed (update in progress); contract dormant
    }
    const os::TaskStats& stats = cpu.stats(task_id);

    // New deadline misses since the previous sample.
    if (stats.deadline_misses > watch.last_misses) {
      raise(contract.name, "deadline_miss",
            static_cast<double>(stats.deadline_misses - watch.last_misses),
            0.0);
    }
    watch.last_misses = stats.deadline_misses;

    // Aggregate miss ratio.
    if (contract.max_miss_ratio > 0.0 && stats.completions > 10 &&
        stats.miss_ratio() > contract.max_miss_ratio) {
      raise(contract.name, "miss_ratio", stats.miss_ratio(),
            contract.max_miss_ratio);
    }

    // Response-time spread (jitter) once enough samples exist.
    if (contract.max_response_jitter > 0 &&
        stats.response_time.count() > 10) {
      const double spread =
          stats.response_time.max() - stats.response_time.min();
      if (spread > static_cast<double>(contract.max_response_jitter)) {
        raise(contract.name, "jitter", spread,
              static_cast<double>(contract.max_response_jitter));
      }
    }

    // Starvation: no completions at all across a sampling period while the
    // task should have run several times. The first sample only primes the
    // baseline (a freshly watched task has completed nothing yet).
    if (watch.primed && contract.period > 0 &&
        stats.completions == watch.last_completions &&
        config_.sampling_period > 3 * contract.period) {
      raise(contract.name, "starvation", 0.0,
            static_cast<double>(contract.period));
    }
    watch.last_completions = stats.completions;
    watch.primed = true;

    // Memory ceiling.
    if (contract.max_memory_bytes > 0 &&
        contract.process != os::kInvalidProcess &&
        ecu_.memory().exists(contract.process)) {
      const auto used = ecu_.memory().info(contract.process).used;
      if (used > contract.max_memory_bytes) {
        raise(contract.name, "memory", static_cast<double>(used),
              static_cast<double>(contract.max_memory_bytes));
      }
    }
  }
}

std::string RuntimeMonitor::certification_report() const {
  std::ostringstream os;
  os << "# certification dataset: " << ecu_.name() << "\n";
  os << "# task period_ns deadline_ns resp_mean_ns resp_p99_ns resp_max_ns "
        "misses completions faults\n";
  for (const auto& [task_id, watch] : watches_) {
    const os::Processor& cpu = ecu_.processor(watch.contract.core);
    if (!cpu.has_task(task_id)) continue;
    const auto& stats = cpu.stats(task_id);
    std::size_t fault_count = 0;
    for (const auto& fault : faults_) {
      if (fault.subject == watch.contract.name) ++fault_count;
    }
    os << watch.contract.name << " " << watch.contract.period << " "
       << watch.contract.deadline << " " << stats.response_time.mean() << " "
       << stats.response_time.percentile(99) << " "
       << stats.response_time.max() << " " << stats.deadline_misses << " "
       << stats.completions << " " << fault_count << "\n";
  }
  return os.str();
}

}  // namespace dynaplat::monitor
