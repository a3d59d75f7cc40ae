// E1 -- Fig. 2 / Sec. 3.1 "CPU": freedom from interference on a
// consolidated ECU.
//
// Five deterministic control tasks share one 200 MIPS ECU with a growing
// non-deterministic background load. Three scheduling regimes:
//   fair      -- GPOS fair scheduler, no platform (the unisolated baseline)
//   fp        -- RTOS fixed priorities (DAs above NDAs)
//   tt        -- the dynamic platform's synthesized time-triggered table
// Reported per load level: DA deadline-miss ratio, worst/p99 DA response,
// DA response-time spread (jitter), and NDA throughput.
//
// Expected shape: fair collapses early (misses grow with load); fp holds
// deadlines but DA response spread grows with NDA interference through
// blocking; tt pins DA responses regardless of load (the paper's claim).
#include <memory>

#include "bench/common.hpp"
#include "dse/admission.hpp"
#include "os/processor.hpp"

using namespace dynaplat;

namespace {

struct DaTaskSpec {
  const char* name;
  sim::Duration period;
  std::uint64_t instructions;  // at 200 MIPS: duration = instr * 5 ns
  int priority;
};

// ~31% deterministic utilization across automotive-typical rates.
constexpr DaTaskSpec kDaTasks[] = {
    {"brake_ctl", 1 * sim::kMillisecond, 20'000, 0},   // 0.1
    {"steer_ctl", 2 * sim::kMillisecond, 30'000, 1},   // 0.075
    {"susp_ctl", 5 * sim::kMillisecond, 60'000, 2},    // 0.06
    {"adas_fuse", 10 * sim::kMillisecond, 100'000, 3}, // 0.05
    {"diag_loop", 20 * sim::kMillisecond, 120'000, 4}, // 0.03
};

struct Result {
  double miss_ratio = 0.0;
  double p99_response_us = 0.0;
  double max_response_us = 0.0;
  double spread_us = 0.0;  // max - min response across DA tasks
  std::uint64_t nda_completions = 0;
};

Result run(const std::string& regime, double nda_load) {
  sim::Simulator simulator;
  const os::CpuModel cpu_model{.mips = 200};

  std::unique_ptr<os::Scheduler> scheduler;
  os::TimeTriggeredScheduler* tt = nullptr;
  if (regime == "fair") {
    scheduler = os::make_fair(sim::kMillisecond);
  } else if (regime == "fp") {
    scheduler = os::make_fixed_priority();
  } else {
    auto tt_scheduler = std::make_unique<os::TimeTriggeredScheduler>(
        sim::kMillisecond, std::vector<os::TtWindow>{});
    tt = tt_scheduler.get();
    scheduler = std::move(tt_scheduler);
  }
  os::Processor cpu(simulator, "ecu", cpu_model, std::move(scheduler),
                    nullptr, 7);

  std::vector<os::TaskId> da_ids;
  std::vector<dse::AnalysisTask> analysis;
  for (const auto& spec : kDaTasks) {
    os::TaskConfig config;
    config.name = spec.name;
    config.task_class = os::TaskClass::kDeterministic;
    config.period = spec.period;
    config.instructions = spec.instructions;
    config.priority = spec.priority;
    config.execution_jitter = 0.05;
    da_ids.push_back(cpu.add_task(config));

    dse::AnalysisTask at;
    at.name = spec.name;
    at.period = spec.period;
    at.deadline = spec.period;
    at.wcet = cpu_model.duration_for(
        static_cast<std::uint64_t>(spec.instructions * 1.05));
    at.priority = spec.priority;
    at.deterministic = true;
    analysis.push_back(at);
  }

  // NDA background: 4 workers whose combined utilization equals nda_load.
  std::vector<os::TaskId> nda_ids;
  const int workers = 4;
  for (int w = 0; w < workers; ++w) {
    os::TaskConfig config;
    config.name = "nda" + std::to_string(w);
    config.task_class = os::TaskClass::kNonDeterministic;
    config.period = 20 * sim::kMillisecond;
    config.instructions = static_cast<std::uint64_t>(
        nda_load / workers * 200e6 * 0.020);  // load share of 20 ms
    config.priority = 10 + w;
    config.execution_jitter = 0.2;
    if (config.instructions > 0) nda_ids.push_back(cpu.add_task(config));
  }

  if (tt != nullptr) {
    // Platform behaviour: backend-synthesized table with dispatch padding.
    dse::ScheduleServer backend;
    const auto artifact = backend.synthesize(analysis, cpu_model.mips);
    if (artifact.feasible) {
      std::vector<os::TtWindow> windows;
      for (const auto& window : artifact.table.windows) {
        windows.push_back(os::TtWindow{window.offset, window.length,
                                       da_ids[window.task]});
      }
      tt->install_table(artifact.table.cycle, std::move(windows));
    }
  }

  cpu.start();
  simulator.run_until(sim::seconds(5));

  Result result;
  std::uint64_t completions = 0, misses = 0;
  for (os::TaskId id : da_ids) {
    const auto& stats = cpu.stats(id);
    completions += stats.completions;
    misses += stats.deadline_misses;
    result.p99_response_us =
        std::max(result.p99_response_us,
                 stats.response_time.percentile(99) / 1000.0);
    result.max_response_us =
        std::max(result.max_response_us, stats.response_time.max() / 1000.0);
    result.spread_us =
        std::max(result.spread_us, (stats.response_time.max() -
                                    stats.response_time.min()) /
                                       1000.0);
  }
  result.miss_ratio =
      completions ? static_cast<double>(misses) /
                        static_cast<double>(completions)
                  : 1.0;
  for (os::TaskId id : nda_ids) {
    result.nda_completions += cpu.stats(id).completions;
  }
  return result;
}

}  // namespace

int main() {
  bench::banner("E1", "mixed-criticality CPU interference (Fig. 2, Sec. 3.1)");
  bench::Table table({"regime", "nda_load", "da_miss_ratio", "da_p99_us",
                      "da_max_us", "da_spread_us", "nda_completions"});
  for (const char* regime : {"fair", "fp", "tt"}) {
    for (double load : {0.0, 0.2, 0.4, 0.6, 0.68}) {
      const Result result = run(regime, load);
      table.row({regime, bench::fmt(load, 2),
                 bench::fmt(result.miss_ratio, 4),
                 bench::fmt(result.p99_response_us, 1),
                 bench::fmt(result.max_response_us, 1),
                 bench::fmt(result.spread_us, 1),
                 bench::fmt(result.nda_completions)});
    }
  }
  return 0;
}
