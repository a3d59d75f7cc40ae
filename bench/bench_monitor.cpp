// E10 -- Sec. 3.4: runtime monitoring cost and detection latency.
//
// A deterministic task set runs under the monitor at several sampling
// periods. At t = 5 s a latent fault is injected (one task's execution time
// inflates past its deadline). Reported: monitoring CPU overhead (fraction
// of the core), detection latency (fault injection -> first fault record)
// and fault count; plus the monitor-off baseline.
//
// cpu_overhead_pct is the core's measured busy fraction before the fault
// minus the task set's analytic utilization, so it includes the scheduler's
// own dispatch cost: the monitor-off row (0.36 %) is that floor. Expected
// shape: overhead falls as the sampling period grows (2.15 % of the core at
// 1 ms sampling, 0.49 % at 10 ms, the off floor at 100 ms); detection
// latency ~ sampling period; with monitoring off the fault is never seen
// (the certification data set stays empty).
//
// Gate: the bench exits nonzero unless the off run detects no fault, every
// monitored run detects the injected one, and, as the sampling period
// grows, overhead falls and detection latency does not.
//
// Machine-readable results go to BENCH_monitor.json (one sample per
// sampling period plus the off baseline), following the BENCH_dse.json
// pattern so successive PRs accumulate a trajectory.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "monitor/runtime_monitor.hpp"

using namespace dynaplat;

namespace {

struct Outcome {
  double overhead_percent = 0.0;
  double detection_ms = -1.0;
  std::size_t faults = 0;
};

Outcome run(bool monitoring, sim::Duration sampling_period) {
  sim::Simulator simulator;
  sim::Trace trace;
  os::EcuConfig config{.name = "ecu", .cpu = {.mips = 200}};
  os::Ecu ecu(simulator, config, nullptr, 0, &trace);

  // Reference run cost: measure instructions of the task set alone first
  // via utilization math (tasks are exact), so overhead = extra busy time.
  std::vector<os::TaskId> ids;
  for (int i = 0; i < 5; ++i) {
    os::TaskConfig task;
    task.name = "da" + std::to_string(i);
    task.task_class = os::TaskClass::kDeterministic;
    task.period = (5 + 5 * i) * sim::kMillisecond;
    task.instructions = 50'000 + 20'000 * static_cast<std::uint64_t>(i);
    task.priority = i;
    ids.push_back(ecu.processor().add_task(task));
  }
  ecu.processor().start();

  monitor::MonitorConfig monitor_config;
  monitor_config.sampling_period = sampling_period;
  monitor::RuntimeMonitor monitor(ecu, monitor_config);
  sim::Time detected_at = 0;
  if (monitoring) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      monitor::Contract contract;
      contract.task = ids[i];
      contract.name = "da" + std::to_string(i);
      contract.period = (5 + 5 * static_cast<sim::Duration>(i)) *
                        sim::kMillisecond;
      monitor.watch(contract);
    }
    monitor.set_report_sink([&](const monitor::FaultRecord&) {
      if (detected_at == 0) detected_at = simulator.now();
    });
    monitor.start();
  }

  // Latent fault: at t = 5 s task 0's execution time inflates 60x (a stuck
  // loop), overrunning its 5 ms period.
  const sim::Time fault_at = sim::seconds(5);
  simulator.schedule_at(fault_at, [&] {
    ecu.processor().remove_task(ids[0]);
    os::TaskConfig task;
    task.name = "da0";
    task.task_class = os::TaskClass::kDeterministic;
    task.period = 5 * sim::kMillisecond;
    task.instructions = 3'000'000;
    task.priority = 0;
    const os::TaskId new_id = ecu.processor().add_task(task);
    if (monitoring) {
      monitor::Contract contract;
      contract.task = new_id;
      contract.name = "da0";
      contract.period = 5 * sim::kMillisecond;
      monitor.watch(contract);
    }
  });

  // Baseline busy fraction measured on a twin run without the monitor would
  // double runtime; instead use the analytic task utilization.
  double base_utilization = 0.0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // instr * 5 ns per instruction at 200 MIPS, over a (5 + 5i) ms period.
    base_utilization += static_cast<double>(50'000 + 20'000 * i) * 5.0 /
                        (static_cast<double>(5 + 5 * i) * 1e6);
  }

  simulator.run_until(fault_at);  // pre-fault phase only for overhead
  const double busy_pre_fault = ecu.processor().busy_fraction();
  simulator.run_until(sim::seconds(8));

  Outcome outcome;
  outcome.overhead_percent = (busy_pre_fault - base_utilization) * 100.0;
  if (detected_at > 0) {
    outcome.detection_ms = sim::to_ms(detected_at - fault_at);
  }
  outcome.faults = monitor.faults().size();
  return outcome;
}

struct Sample {
  bool monitoring = false;
  double sampling_ms = 0.0;
  Outcome outcome;
};

// The claims of the header, checked on this run (samples: the off baseline,
// then monitored runs by growing sampling period). Each broken claim is
// reported on stderr.
bool claims_hold(const std::vector<Sample>& samples) {
  bool ok = true;
  const auto require = [&ok](bool holds, const char* claim, double ms) {
    if (!holds) {
      std::fprintf(stderr, "E10 gate: %s (sampling %.0f ms)\n", claim, ms);
      ok = false;
    }
  };
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (!s.monitoring) {
      require(s.outcome.faults == 0 && s.outcome.detection_ms < 0,
              "the monitor-off run detected a fault", s.sampling_ms);
      continue;
    }
    require(s.outcome.faults > 0 && s.outcome.detection_ms >= 0,
            "a monitored run detected no fault", s.sampling_ms);
    const Sample& prev = samples[i - 1];
    if (!prev.monitoring) continue;
    require(s.outcome.overhead_percent < prev.outcome.overhead_percent,
            "overhead did not fall with a longer sampling period",
            s.sampling_ms);
    require(s.outcome.detection_ms >= prev.outcome.detection_ms,
            "detection latency fell with a longer sampling period",
            s.sampling_ms);
  }
  return ok;
}

}  // namespace

int main() {
  bench::banner("E10", "runtime monitoring overhead & detection (Sec. 3.4)");
  bench::Table table({"monitoring", "sampling_ms", "cpu_overhead_pct",
                      "detection_ms", "faults_recorded"});

  std::vector<Sample> samples;
  {
    const Outcome off = run(false, 10 * sim::kMillisecond);
    table.row({"off", "-", bench::fmt(off.overhead_percent, 3),
               off.detection_ms < 0 ? "never" : bench::fmt(off.detection_ms, 1),
               bench::fmt(off.faults)});
    samples.push_back({false, 0.0, off});
  }
  for (sim::Duration period : {sim::kMillisecond, 5 * sim::kMillisecond,
                               10 * sim::kMillisecond,
                               100 * sim::kMillisecond}) {
    const Outcome on = run(true, period);
    table.row({"on", bench::fmt(sim::to_ms(period), 0),
               bench::fmt(on.overhead_percent, 3),
               on.detection_ms < 0 ? "never" : bench::fmt(on.detection_ms, 1),
               bench::fmt(on.faults)});
    samples.push_back({true, sim::to_ms(period), on});
  }

  const bool written = bench::write_result(
      "BENCH_monitor.json", "E10_runtime_monitoring",
      [&](obs::json::Writer& out) {
        out.key("samples").begin_array();
        for (const Sample& s : samples) {
          out.begin_object()
              .member("monitoring", s.monitoring)
              .member("sampling_period_ms", bench::rounded(s.sampling_ms, 3))
              .member("cpu_overhead_percent",
                      bench::rounded(s.outcome.overhead_percent, 4))
              .member("detection_latency_ms",
                      bench::rounded(s.outcome.detection_ms, 3))
              .member("faults_recorded", s.outcome.faults)
              .end_object();
        }
        out.end_array();
      });
  const bool gated = claims_hold(samples);
  std::fprintf(stderr, "E10 gate: %s\n", gated ? "pass" : "FAIL");
  return written && gated ? 0 : 1;
}
