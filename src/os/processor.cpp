#include "os/processor.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dynaplat::os {

Processor::Processor(sim::Simulator& simulator, std::string name,
                     CpuModel cpu, std::unique_ptr<Scheduler> scheduler,
                     sim::Trace* trace, std::uint64_t seed)
    : sim_(simulator),
      name_(std::move(name)),
      cpu_(cpu),
      scheduler_(std::move(scheduler)),
      trace_(trace),
      rng_(seed),
      // A context switch costs ~1000 instructions on a typical automotive
      // microcontroller; expressed through the CPU model so slow ECUs pay
      // proportionally more.
      context_switch_cost_(cpu.duration_for(1000)) {
  assert(scheduler_ != nullptr);
  if (trace_ != nullptr) {
    auto& buffer = trace_->buffer();
    ev_release_ = buffer.intern("release");
    ev_run_ = buffer.intern("run");
    ev_complete_ = buffer.intern("complete");
    ev_deadline_miss_ = buffer.intern("deadline_miss");
    ev_preempt_ = buffer.intern("preempt");
  }
}

Processor::~Processor() { halt(); }

void Processor::trace_event(std::uint32_t source, std::uint32_t name,
                            std::int64_t value, obs::EventType type) {
  if (trace_ != nullptr) {
    trace_->buffer().record(sim_.now(), sim::TraceCategory::kTask, source,
                            name, value, type);
  }
}

// Lane id interned once per task registration or submit; per-job records
// then avoid all string work. Skipped while task tracing is masked off.
std::uint32_t Processor::lane(std::string_view task_name) {
  if (trace_ == nullptr || !trace_->enabled(sim::TraceCategory::kTask)) {
    return 0;
  }
  std::string lane_name = name_;
  lane_name += '/';
  lane_name += task_name;
  return trace_->buffer().intern(lane_name);
}

TaskId Processor::add_task(TaskConfig config, JobBody body) {
  const TaskId id = next_task_id_++;
  TaskState& ts = tasks_[id];  // built in place: TaskStats does not move
  ts.config = std::move(config);
  ts.body = std::move(body);
  ts.trace_source = lane(ts.config.name);
  if (started_ && !halted_ && ts.config.period > 0) {
    const sim::Duration period = ts.config.period;
    sim::Time first = ts.config.offset;
    if (first < sim_.now()) {
      const sim::Time k = (sim_.now() - ts.config.offset + period - 1) / period;
      first = ts.config.offset + k * period;
    }
    ts.recurrence =
        sim_.schedule_every(first, period, [this, id] { on_release(id); });
  }
  return id;
}

void Processor::remove_task(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  if (it->second.recurrence.valid()) sim_.cancel(it->second.recurrence);
  ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                              [id](const ReadyJob& j) { return j.task == id; }),
               ready_.end());
  if (running_ && running_->job.task == id) {
    sim_.cancel(running_->completion);
    trace_event(running_->trace_source, ev_run_, 0, obs::EventType::kEnd);
    running_.reset();
    tasks_.erase(it);
    reevaluate();
    return;
  }
  tasks_.erase(it);
}

void Processor::start() {
  if (started_) return;
  started_ = true;
  started_at_ = sim_.now();
  for (auto& [id, task] : tasks_) {
    if (task.config.period <= 0 || task.recurrence.valid()) continue;
    const sim::Duration period = task.config.period;
    sim::Time first = task.config.offset;
    if (first < sim_.now()) {
      const sim::Time k =
          (sim_.now() - task.config.offset + period - 1) / period;
      first = task.config.offset + k * period;
    }
    const TaskId tid = id;
    task.recurrence =
        sim_.schedule_every(first, period, [this, tid] { on_release(tid); });
  }
}

void Processor::halt() {
  halted_ = true;
  for (auto& [id, task] : tasks_) {
    if (task.recurrence.valid()) {
      sim_.cancel(task.recurrence);
      task.recurrence = {};
    }
  }
  ready_.clear();
  if (running_) {
    sim_.cancel(running_->completion);
    trace_event(running_->trace_source, ev_run_, 0, obs::EventType::kEnd);
    running_.reset();
  }
  if (kick_.valid()) {
    sim_.cancel(kick_);
    kick_ = {};
  }
}

void Processor::release(TaskId id) {
  if (!halted_) on_release(id);
}

void Processor::submit(std::string_view name, std::uint64_t instructions,
                       int priority, TaskClass task_class,
                       JobBody on_complete) {
  if (halted_) return;
  const std::uint32_t trace_source = lane(name);
  // A one-shot has no period, deadline, jitter or overrun scale.
  ReadyJob job;
  job.task = next_task_id_++;
  job.task_class = task_class;
  job.priority = priority;
  job.release = sim_.now();
  job.absolute_deadline = sim::kTimeNever;
  job.remaining = execution_time(instructions, 1.0);
  job.sequence = next_job_sequence_++;
  job.one_shot = one_shots_.put(
      OneShotJob{instructions, trace_source, std::move(on_complete)});
  ready_.push_back(job);
  trace_event(trace_source, ev_release_);
  reevaluate();
}

void Processor::inject_overrun(TaskId id, double scale) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  it->second.overrun_scale = scale > 0.0 ? scale : 1.0;
}

void Processor::set_scheduler(std::unique_ptr<Scheduler> scheduler) {
  assert(scheduler != nullptr);
  scheduler_ = std::move(scheduler);
  if (!halted_) reevaluate();
}

sim::Duration Processor::sample_execution_time(const TaskState& task) {
  double factor = task.overrun_scale;
  const double jitter = task.config.execution_jitter;
  if (jitter > 0.0) factor += rng_.uniform(-jitter, jitter);
  return execution_time(task.config.instructions, factor);
}

sim::Duration Processor::execution_time(std::uint64_t instructions,
                                        double factor) const {
  const auto scaled =
      static_cast<std::uint64_t>(static_cast<double>(instructions) * factor);
  return cpu_.duration_for(std::max<std::uint64_t>(scaled, 1));
}

void Processor::on_release(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end() || halted_) return;
  TaskState& task = it->second;
  ++task.stats.releases;
  ++task.release_count;

  ReadyJob job;
  job.task = id;
  job.task_class = task.config.task_class;
  job.priority = task.config.priority;
  job.release = sim_.now();
  const sim::Duration deadline = task.config.effective_deadline();
  job.absolute_deadline =
      deadline > 0 ? sim_.now() + deadline : sim::kTimeNever;
  job.remaining = sample_execution_time(task);
  job.sequence = next_job_sequence_++;
  ready_.push_back(job);
  trace_event(task.trace_source, ev_release_);
  reevaluate();
}

void Processor::on_complete() {
  assert(running_.has_value());
  RunningJob done = *running_;
  running_.reset();
  busy_time_ += sim_.now() - done.started;
  // Close the execution slice opened at dispatch.
  trace_event(done.trace_source, ev_run_, 0, obs::EventType::kEnd);

  const sim::Duration response = sim_.now() - done.job.release;
  if (done.job.one_shot != kNotOneShot) {
    // Taken out before the body runs: the body may submit again.
    OneShotJob job = one_shots_.take(done.job.one_shot);
    instructions_retired_ += job.instructions;
    trace_event(job.trace_source, ev_complete_,
                static_cast<std::int64_t>(response));
    if (job.body) job.body();
  } else if (auto it = tasks_.find(done.job.task); it != tasks_.end()) {
    TaskState& task = it->second;
    instructions_retired_ += task.config.instructions;
    ++task.stats.completions;
    task.stats.response_time.observe(response);
    task.dispatched = false;
    const bool missed = done.job.absolute_deadline != sim::kTimeNever &&
                        sim_.now() > done.job.absolute_deadline;
    if (missed) {
      ++task.stats.deadline_misses;
      trace_event(task.trace_source, ev_deadline_miss_,
                  sim_.now() - done.job.absolute_deadline);
    }
    trace_event(task.trace_source, ev_complete_,
                static_cast<std::int64_t>(response));
    // Copy the body out: it may remove its own task.
    JobBody body = task.body;
    if (body) body();
  }
  reevaluate();
}

void Processor::reevaluate() {
  if (halted_) return;
  // Freeze the running job (if preemption is allowed) so the scheduler sees
  // a uniform ready list. The frozen identity lets the dispatch below tell a
  // genuine switch from a resume of the same job, so execution-slice spans
  // only split on real preemptions.
  bool had_frozen = false;
  std::uint64_t frozen_sequence = 0;
  std::uint32_t frozen_source = 0;
  if (running_) {
    if (!scheduler_->preemptive()) return;
    sim_.cancel(running_->completion);
    ReadyJob job = running_->job;
    const sim::Duration ran = sim_.now() - running_->started;
    busy_time_ += ran;
    job.remaining -= ran;
    if (job.remaining < 1) job.remaining = 1;  // completion races the kick
    had_frozen = true;
    frozen_sequence = job.sequence;
    frozen_source = running_->trace_source;
    ready_.push_back(job);
    running_.reset();
  }
  if (kick_.valid()) {
    sim_.cancel(kick_);
    kick_ = {};
  }

  const int selected = scheduler_->select(ready_, sim_.now());
  if (selected >= 0) {
    const auto idx = static_cast<std::size_t>(selected);
    RunningJob run;
    run.job = ready_[idx];
    ready_.erase(ready_.begin() + static_cast<long>(idx));

    if (last_dispatched_ != run.job.task &&
        last_dispatched_ != kInvalidTask) {
      run.job.remaining += context_switch_cost_;
    }
    // Preemption accounting: a job re-dispatched after losing the CPU.
    if (run.job.one_shot != kNotOneShot) {
      run.trace_source = one_shots_[run.job.one_shot].trace_source;
    } else if (auto task_it = tasks_.find(run.job.task);
               task_it != tasks_.end()) {
      auto& task = task_it->second;
      run.trace_source = task.trace_source;
      if (!task.dispatched) {
        task.dispatched = true;
      } else if (last_dispatched_ != run.job.task) {
        ++task.stats.preemptions;
      }
    }
    const bool resumed_same = had_frozen && frozen_sequence == run.job.sequence;
    if (!resumed_same) {
      if (had_frozen) {
        trace_event(frozen_source, ev_run_, 0, obs::EventType::kEnd);
        trace_event(frozen_source, ev_preempt_);
      }
      trace_event(run.trace_source, ev_run_, 0, obs::EventType::kBegin);
    }
    last_dispatched_ = run.job.task;
    run.started = sim_.now();
    run.completion =
        sim_.schedule_in(run.job.remaining, [this] { on_complete(); });
    running_ = run;
  } else if (had_frozen) {
    // Frozen but nothing dispatchable (e.g. outside a TT window): the slice
    // ends here and a new one begins when the job is re-selected.
    trace_event(frozen_source, ev_run_, 0, obs::EventType::kEnd);
  }

  // Wake up at the next scheduler-internal decision point (TT window edge,
  // RR quantum expiry) if it precedes the running job's completion.
  const sim::Time decision = scheduler_->next_decision_point(sim_.now());
  if (decision != sim::kTimeNever) {
    const sim::Time completion_at =
        running_ ? running_->started + running_->job.remaining
                 : sim::kTimeNever;
    const bool has_waiting_work = !ready_.empty() || running_.has_value();
    if (decision < completion_at && has_waiting_work) {
      kick_ = sim_.schedule_at(decision, [this] {
        kick_ = {};
        reevaluate();
      });
    }
  }
}

const TaskStats& Processor::stats(TaskId id) const {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::out_of_range("unknown task");
  return it->second.stats;
}

const TaskConfig& Processor::config(TaskId id) const {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::out_of_range("unknown task");
  return it->second.config;
}

std::vector<TaskId> Processor::task_ids() const {
  std::vector<TaskId> ids;
  ids.reserve(tasks_.size());
  for (const auto& [id, task] : tasks_) ids.push_back(id);
  return ids;
}

double Processor::utilization() const {
  double u = 0.0;
  for (const auto& [id, task] : tasks_) {
    if (task.config.period > 0) {
      u += static_cast<double>(cpu_.duration_for(task.config.instructions)) /
           static_cast<double>(task.config.period);
    }
  }
  return u;
}

double Processor::busy_fraction() const {
  const sim::Duration elapsed = sim_.now() - started_at_;
  if (elapsed <= 0) return 0.0;
  sim::Duration busy = busy_time_;
  if (running_) busy += sim_.now() - running_->started;
  return static_cast<double>(busy) / static_cast<double>(elapsed);
}

}  // namespace dynaplat::os
