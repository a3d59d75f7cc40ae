// Scheduling policies.
//
// A Scheduler is a pure selection policy over the ready queue; the Processor
// owns all mechanics (releases, preemption, completion events). This split
// lets the dynamic platform swap policies per ECU as the model prescribes
// (Sec. 1.1: RTOS with time/priority scheduling for mixed criticality,
// fair best-effort OS where only NDAs run).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "os/task.hpp"
#include "sim/time.hpp"

namespace dynaplat::os {

/// ReadyJob::one_shot of a job released by a registered task.
inline constexpr std::uint32_t kNotOneShot = 0xFFFFFFFFu;

struct ReadyJob {
  TaskId task = kInvalidTask;
  TaskClass task_class = TaskClass::kNonDeterministic;
  int priority = 16;
  sim::Time release = 0;
  sim::Time absolute_deadline = 0;
  sim::Duration remaining = 0;  ///< execution time still owed
  /// Monotonic admission counter; ties on priority/deadline resolve FIFO by
  /// this (a preempted job keeps its sequence and resumes before later
  /// arrivals of equal priority).
  std::uint64_t sequence = 0;
  /// Pool slot of a submitted one-shot job's record in its Processor;
  /// kNotOneShot for a job of a registered task.
  std::uint32_t one_shot = kNotOneShot;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Index into `ready` of the job to run now, or -1 to idle.
  virtual int select(const std::vector<ReadyJob>& ready, sim::Time now) = 0;

  /// Next instant at which the selection could change without a release or
  /// completion occurring (time-table window edges, round-robin quantum
  /// expiry). kTimeNever if selection only changes on release/completion.
  virtual sim::Time next_decision_point(sim::Time now) const {
    (void)now;
    return sim::kTimeNever;
  }

  /// Whether a newly released job may preempt the running one.
  virtual bool preemptive() const { return true; }

  virtual const char* policy_name() const = 0;
};

/// Preemptive fixed-priority (lower value = more urgent); the RTOS staple.
class FixedPriorityScheduler final : public Scheduler {
 public:
  int select(const std::vector<ReadyJob>& ready, sim::Time now) override;
  const char* policy_name() const override { return "fixed-priority"; }
};

/// Preemptive earliest-deadline-first.
class EdfScheduler final : public Scheduler {
 public:
  int select(const std::vector<ReadyJob>& ready, sim::Time now) override;
  const char* policy_name() const override { return "edf"; }
};

/// Quantum-based round-robin over all ready jobs, oblivious to class and
/// deadline — models a general-purpose OS's fair scheduler. This is the
/// *unisolated baseline* of experiment E1: deterministic tasks receive no
/// preferential treatment and their jitter grows with best-effort load.
class FairScheduler final : public Scheduler {
 public:
  explicit FairScheduler(sim::Duration quantum = 1 * sim::kMillisecond)
      : quantum_(quantum) {}
  int select(const std::vector<ReadyJob>& ready, sim::Time now) override;
  sim::Time next_decision_point(sim::Time now) const override;
  const char* policy_name() const override { return "fair-rr"; }

 private:
  sim::Duration quantum_;
  mutable sim::Time slice_end_ = 0;
  std::uint64_t rr_cursor_ = 0;
};

/// One window of a time-triggered table, relative to the table cycle.
struct TtWindow {
  sim::Duration offset = 0;
  sim::Duration length = 0;
  TaskId task = kInvalidTask;
};

/// Table-driven time-triggered scheduler with priority-scheduled background.
///
/// Deterministic tasks own exclusive windows inside a repeating cycle; while
/// no window is active (or the window's owner has no ready job), ready
/// non-window jobs run in fixed-priority order but are preempted at the next
/// window edge. This is the paper's proposed mixed-criticality platform
/// scheme (Sec. 3.1 "CPU"): DAs keep their activation instants regardless of
/// NDA behaviour.
class TimeTriggeredScheduler final : public Scheduler {
 public:
  TimeTriggeredScheduler(sim::Duration cycle, std::vector<TtWindow> table);

  int select(const std::vector<ReadyJob>& ready, sim::Time now) override;
  sim::Time next_decision_point(sim::Time now) const override;
  const char* policy_name() const override { return "time-triggered"; }

  sim::Duration cycle() const { return cycle_; }
  const std::vector<TtWindow>& table() const { return table_; }

  /// Replaces the table atomically (runtime reconfiguration; the schedule
  /// artifact shipped from the backend in E4 lands here).
  void install_table(sim::Duration cycle, std::vector<TtWindow> table);

 private:
  /// Window active at `now`, or nullptr.
  const TtWindow* active_window(sim::Time now) const;

  sim::Duration cycle_;
  std::vector<TtWindow> table_;  // sorted by offset
};

std::unique_ptr<Scheduler> make_fixed_priority();
std::unique_ptr<Scheduler> make_edf();
std::unique_ptr<Scheduler> make_fair(sim::Duration quantum = sim::kMillisecond);

}  // namespace dynaplat::os
