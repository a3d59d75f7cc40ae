#include "dse/admission.hpp"

#include <sstream>

#include "os/processor.hpp"
#include "sim/simulator.hpp"

namespace dynaplat::dse {

std::uint64_t local_test_cost(std::size_t task_count) {
  // RTA fixed-point: ~n^2 interference terms, ~20 iterations, ~50
  // instructions per term.
  return 50ull * 20ull * task_count * task_count + 10'000;
}

AdmissionDecision admit(const std::vector<AnalysisTask>& existing,
                        const std::vector<AnalysisTask>& incoming) {
  AdmissionDecision decision;
  std::vector<AnalysisTask> combined = existing;
  combined.insert(combined.end(), incoming.begin(), incoming.end());
  decision.analysis_instructions = local_test_cost(combined.size());

  double utilization = 0.0;
  for (const auto& task : combined) utilization += task.utilization();
  if (utilization > 1.0) {
    std::ostringstream os;
    os << "rejected: utilization " << utilization << " > 1.0";
    decision.reason = os.str();
    return decision;
  }
  // Deterministic subset through exact RTA.
  std::vector<AnalysisTask> det;
  for (const auto& task : combined) {
    if (task.deterministic) det.push_back(task);
  }
  if (!response_time_analysis(det).has_value()) {
    decision.reason = "rejected: deterministic subset fails RTA";
    return decision;
  }
  decision.admitted = true;
  decision.reason = "admitted by local utilization + RTA test";
  return decision;
}

std::uint64_t ScheduleServer::synthesis_cost(
    std::size_t jobs_in_hyperperiod) {
  // Greedy placement over a free list (~j^2) plus simulation of two
  // hyperperiods (~1000 instructions per simulated job).
  return 200ull * jobs_in_hyperperiod * jobs_in_hyperperiod +
         2'000ull * jobs_in_hyperperiod + 50'000;
}

bool validate_by_simulation(const TtTable& table,
                            const std::vector<AnalysisTask>& tasks,
                            std::uint64_t ecu_mips, std::string* why) {
  sim::Simulator scratch;
  // Map analysis tasks to processor tasks; remember the ids so the TT
  // window owners can be rewritten.
  std::vector<os::TaskId> ids(tasks.size(), os::kInvalidTask);
  auto scheduler = std::make_unique<os::TimeTriggeredScheduler>(
      table.cycle > 0 ? table.cycle : sim::kMillisecond,
      std::vector<os::TtWindow>{});
  auto* tt = scheduler.get();
  os::Processor cpu(scratch, "backend-sim", os::CpuModel{ecu_mips},
                    std::move(scheduler));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    os::TaskConfig config;
    config.name = tasks[i].name;
    config.task_class = tasks[i].deterministic
                            ? os::TaskClass::kDeterministic
                            : os::TaskClass::kNonDeterministic;
    config.period = tasks[i].period;
    config.deadline = tasks[i].deadline;
    config.instructions = static_cast<std::uint64_t>(tasks[i].wcet) *
                          ecu_mips / 1000;
    config.priority = tasks[i].priority;
    ids[i] = cpu.add_task(config);
  }
  std::vector<os::TtWindow> windows;
  for (const auto& window : table.windows) {
    windows.push_back(
        os::TtWindow{window.offset, window.length, ids[window.task]});
  }
  tt->install_table(table.cycle > 0 ? table.cycle : sim::kMillisecond,
                    std::move(windows));
  cpu.start();
  const sim::Duration horizon =
      2 * (table.cycle > 0 ? table.cycle : sim::kMillisecond);
  scratch.run_until(horizon);

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!tasks[i].deterministic) continue;
    const auto& stats = cpu.stats(ids[i]);
    if (stats.deadline_misses > 0) {
      if (why != nullptr) {
        *why = "simulation shows deadline misses for " + tasks[i].name;
      }
      return false;
    }
    if (tasks[i].period > 0 && stats.completions == 0 &&
        horizon >= 2 * tasks[i].period) {
      if (why != nullptr) {
        *why = "simulation shows starvation of " + tasks[i].name;
      }
      return false;
    }
  }
  return true;
}

ScheduleServer::Artifact ScheduleServer::synthesize(
    const std::vector<AnalysisTask>& tasks, std::uint64_t ecu_mips) const {
  Artifact artifact;
  // Pad each window with twice the target's context-switch cost (~1000
  // instructions) so dispatch overhead cannot push a job past its window.
  const sim::Duration padding = static_cast<sim::Duration>(
      2ull * 1000ull * 1000ull / std::max<std::uint64_t>(ecu_mips, 1));
  auto table = synthesize_tt_table(tasks, 0, padding);
  std::size_t jobs = 0;
  if (table) {
    jobs = table->windows.size();
  } else {
    for (const auto& task : tasks) {
      if (task.deterministic && task.period > 0) {
        jobs += static_cast<std::size_t>(hyperperiod(tasks) / task.period);
      }
    }
  }
  artifact.synthesis_instructions = synthesis_cost(std::max<std::size_t>(jobs, 1));
  if (!table) {
    artifact.reason = "TT synthesis failed (overload or fragmentation)";
    return artifact;
  }
  artifact.feasible = true;
  artifact.table = std::move(*table);
  std::string why;
  artifact.validated =
      validate_by_simulation(artifact.table, tasks, ecu_mips, &why);
  artifact.reason = artifact.validated
                        ? "synthesized and simulation-validated"
                        : "synthesized but failed validation: " + why;
  return artifact;
}

}  // namespace dynaplat::dse
