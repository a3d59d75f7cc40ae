// E4 -- Sec. 3.1 "CPU" + [21]: where should schedules be synthesized?
//
// For growing deterministic task sets at several utilization levels,
// compare the compute bill of
//   on-ECU admission  -- the cheap local utilization + RTA test
//   on-ECU synthesis  -- full TT table synthesis if the ECU had to do it
//   backend synthesis -- the same synthesis charged to the backend (free
//                        for the ECU), validated by simulation
// Costs are converted to milliseconds of a 200 MIPS ECU being busy (the
// time the ECU cannot do anything else). Acceptance rates included.
//
// Expected shape: local admission stays < 1 ms while synthesis grows
// superlinearly with job count -- exactly the paper's argument for doing it
// "in the backend, using the computation power of the backend".
#include <cmath>

#include "bench/common.hpp"
#include "dse/admission.hpp"
#include "os/cpu.hpp"
#include "sim/random.hpp"

using namespace dynaplat;

namespace {

std::vector<dse::AnalysisTask> random_task_set(std::size_t count,
                                               double utilization,
                                               sim::Random& rng) {
  static const sim::Duration periods[] = {
      5 * sim::kMillisecond,  10 * sim::kMillisecond, 20 * sim::kMillisecond,
      40 * sim::kMillisecond, 50 * sim::kMillisecond, 100 * sim::kMillisecond};
  // UUniFast-style utilization split.
  std::vector<double> shares(count);
  double remaining = utilization;
  for (std::size_t i = 0; i + 1 < count; ++i) {
    const double next =
        remaining * std::pow(rng.uniform01(),
                             1.0 / static_cast<double>(count - i - 1));
    shares[i] = remaining - next;
    remaining = next;
  }
  shares[count - 1] = remaining;

  std::vector<dse::AnalysisTask> tasks;
  for (std::size_t i = 0; i < count; ++i) {
    dse::AnalysisTask task;
    task.name = "t" + std::to_string(i);
    task.period = periods[rng.next_below(std::size(periods))];
    task.deadline = task.period;
    task.wcet = std::max<sim::Duration>(
        1000, static_cast<sim::Duration>(shares[i] *
                                         static_cast<double>(task.period)));
    task.priority = static_cast<int>(i % 16);
    task.deterministic = true;
    tasks.push_back(task);
  }
  return tasks;
}

}  // namespace

int main() {
  bench::banner("E4", "backend vs on-ECU schedule synthesis (Sec. 3.1, [21])");
  bench::Table table({"tasks", "util", "admit_rate", "synth_rate",
                      "ecu_admit_ms", "ecu_synth_ms", "backend_wall_ms",
                      "validated_rate"});
  const std::uint64_t ecu_mips = 200;
  dse::ScheduleServer backend;

  for (std::size_t count : {5u, 10u, 20u, 50u, 100u}) {
    for (double utilization : {0.3, 0.6, 0.9}) {
      sim::Random rng(1000 * count + static_cast<std::uint64_t>(
                                         utilization * 100));
      const int trials = 20;
      int admitted = 0, synthesized = 0, validated = 0;
      std::uint64_t admit_instr = 0, synth_instr = 0;
      double backend_wall_ms = 0.0;
      for (int trial = 0; trial < trials; ++trial) {
        const auto tasks = random_task_set(count, utilization, rng);
        // Local admission: all tasks are "incoming" against an empty ECU.
        const auto decision = dse::admit({}, tasks);
        admit_instr += decision.analysis_instructions;
        if (decision.admitted) ++admitted;
        // Full synthesis (host wall clock measures the backend's real cost).
        bench::Stopwatch stopwatch;
        const auto artifact = backend.synthesize(tasks, ecu_mips);
        backend_wall_ms += stopwatch.elapsed_ms();
        synth_instr += artifact.synthesis_instructions;
        if (artifact.feasible) ++synthesized;
        if (artifact.validated) ++validated;
      }
      const os::CpuModel ecu{.mips = ecu_mips};
      table.row(
          {bench::fmt(count), bench::fmt(utilization, 1),
           bench::fmt(static_cast<double>(admitted) / trials, 2),
           bench::fmt(static_cast<double>(synthesized) / trials, 2),
           bench::fmt(sim::to_ms(ecu.duration_for(admit_instr / trials)), 3),
           bench::fmt(sim::to_ms(ecu.duration_for(synth_instr / trials)), 3),
           bench::fmt(backend_wall_ms / trials, 3),
           bench::fmt(static_cast<double>(validated) / trials, 2)});
    }
  }
  return 0;
}
