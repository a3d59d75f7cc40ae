// Preemptive processor model executing tasks under a pluggable Scheduler.
//
// The Processor turns task releases into timed execution on the shared
// simulator: it freezes/resumes job progress across preemptions, charges
// context-switch overhead, tracks per-task timing statistics and emits trace
// records for the runtime monitor. One Processor == one core; an Ecu may own
// several.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "os/cpu.hpp"
#include "os/scheduler.hpp"
#include "os/task.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"
#include "sim/trace.hpp"

namespace dynaplat::os {

class Processor {
 public:
  Processor(sim::Simulator& simulator, std::string name, CpuModel cpu,
            std::unique_ptr<Scheduler> scheduler, sim::Trace* trace = nullptr,
            std::uint64_t seed = 1);
  ~Processor();
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  /// Registers a task. Periodic tasks (period > 0) begin releasing once
  /// start() has run; aperiodic tasks are released via release().
  TaskId add_task(TaskConfig config, JobBody body = {});

  /// Stops releases and discards pending/running jobs of the task.
  void remove_task(TaskId id);

  /// Begins periodic release generation (aligned to the global clock so
  /// time-triggered tables on different ECUs stay in phase).
  void start();

  /// Stops all activity (ECU failure injection / shutdown).
  void halt();
  bool halted() const { return halted_; }

  /// Releases one job of an aperiodic task now.
  void release(TaskId id);

  /// Submits a one-shot work item (middleware processing, crypto, platform
  /// services). It runs under the same scheduler as the tasks but is not a
  /// task: task_ids()/has_task never list it and it keeps no TaskStats. It
  /// draws a task id and a job sequence number as a task would, so later
  /// add_task ids and scheduling tie-breaks do not depend on it being
  /// pooled. Dropped on a halted core.
  void submit(std::string_view name, std::uint64_t instructions, int priority,
              TaskClass task_class, JobBody on_complete);

  /// Replaces the scheduler policy (platform reconfiguration).
  void set_scheduler(std::unique_ptr<Scheduler> scheduler);
  Scheduler& scheduler() { return *scheduler_; }

  /// Fault injection (src/fault): scales the execution time of the task's
  /// future jobs by `scale` (> 1 models an overrun — cache thrash, lock
  /// contention, a latent bug). 1.0 restores nominal behaviour.
  void inject_overrun(TaskId id, double scale);
  void clear_overrun(TaskId id) { inject_overrun(id, 1.0); }

  const TaskStats& stats(TaskId id) const;
  const TaskConfig& config(TaskId id) const;
  bool has_task(TaskId id) const { return tasks_.count(id) > 0; }
  std::vector<TaskId> task_ids() const;

  /// Sum of instructions executed (all jobs), for load accounting.
  std::uint64_t instructions_retired() const { return instructions_retired_; }
  /// Static utilization of the periodic task set (WCET/period sum).
  double utilization() const;
  /// Fraction of elapsed time the core was executing since start().
  double busy_fraction() const;

  const CpuModel& cpu() const { return cpu_; }
  const std::string& name() const { return name_; }
  sim::Simulator& simulator() { return sim_; }

 private:
  struct TaskState {
    TaskConfig config;
    JobBody body;
    TaskStats stats;
    sim::EventId recurrence;
    std::uint64_t release_count = 0;
    std::uint32_t trace_source = 0;  // interned "<core>/<task>" lane id
    double overrun_scale = 1.0;      // fault-injected execution inflation
    // The task's oldest unfinished job has been dispatched, so a later
    // dispatch after another job ran is a preemption; completion clears it.
    bool dispatched = false;
  };

  // A submitted one-shot job, held in one_shots_ at ReadyJob::one_shot
  // from release to completion.
  struct OneShotJob {
    std::uint64_t instructions = 0;
    std::uint32_t trace_source = 0;
    JobBody body;
  };

  struct RunningJob {
    ReadyJob job;
    sim::Time started = 0;
    sim::EventId completion;
    std::uint32_t trace_source = 0;
  };

  void on_release(TaskId id);
  void on_complete();
  void reevaluate();
  sim::Duration sample_execution_time(const TaskState& task);
  sim::Duration execution_time(std::uint64_t instructions,
                               double factor) const;
  std::uint32_t lane(std::string_view task_name);
  /// Hot-path trace append: interned ids only, no string construction.
  void trace_event(std::uint32_t source, std::uint32_t name,
                   std::int64_t value = 0,
                   obs::EventType type = obs::EventType::kInstant);

  sim::Simulator& sim_;
  std::string name_;
  CpuModel cpu_;
  std::unique_ptr<Scheduler> scheduler_;
  sim::Trace* trace_;
  sim::Random rng_;

  std::map<TaskId, TaskState> tasks_;
  // Records of jobs pending at halt() stay until the processor dies (a
  // halted core never runs again).
  sim::SlotPool<OneShotJob> one_shots_;
  std::vector<ReadyJob> ready_;
  std::optional<RunningJob> running_;
  sim::EventId kick_;
  // Event-name ids interned once at construction so per-job records are a
  // couple of integer stores.
  std::uint32_t ev_release_ = 0;
  std::uint32_t ev_run_ = 0;
  std::uint32_t ev_complete_ = 0;
  std::uint32_t ev_deadline_miss_ = 0;
  std::uint32_t ev_preempt_ = 0;
  TaskId next_task_id_ = 1;
  std::uint64_t next_job_sequence_ = 0;
  TaskId last_dispatched_ = kInvalidTask;
  bool started_ = false;
  bool halted_ = false;
  sim::Time started_at_ = 0;
  sim::Duration busy_time_ = 0;
  std::uint64_t instructions_retired_ = 0;
  sim::Duration context_switch_cost_;
};

}  // namespace dynaplat::os
