#include "platform/node.hpp"

#include "platform/platform.hpp"

namespace dynaplat::platform {

middleware::ServiceId AppContext::service_id(
    const std::string& interface_name) const {
  return node->platform().service_id(interface_name);
}

net::Priority AppContext::priority_of(
    const std::string& interface_name) const {
  return node->platform().interface_priority(interface_name);
}

PlatformNode::PlatformNode(DynamicPlatform& platform, os::Ecu& ecu,
                           NodeConfig config)
    : platform_(platform), ecu_(ecu), config_(config) {
  runtime_ =
      std::make_unique<middleware::ServiceRuntime>(ecu_, config_.middleware);
  monitor_ = std::make_unique<monitor::RuntimeMonitor>(ecu_);
  tts_.resize(ecu_.core_count(), nullptr);
  for (std::size_t core = 0; core < ecu_.core_count(); ++core) {
    if (config_.time_triggered) {
      auto scheduler = std::make_unique<os::TimeTriggeredScheduler>(
          sim::kMillisecond, std::vector<os::TtWindow>{});
      tts_[core] = scheduler.get();
      ecu_.processor(core).set_scheduler(std::move(scheduler));
    }
    ecu_.processor(core).start();
  }
  // Every node runs the runtime monitor (Sec. 3.4).
  monitor_->start();
}

PlatformNode::~PlatformNode() = default;

std::vector<dse::AnalysisTask> PlatformNode::analysis_tasks() const {
  std::vector<dse::AnalysisTask> tasks;
  for (std::size_t core = 0; core < ecu_.core_count(); ++core) {
    auto core_tasks = analysis_tasks(core);
    tasks.insert(tasks.end(), core_tasks.begin(), core_tasks.end());
  }
  return tasks;
}

std::vector<dse::AnalysisTask> PlatformNode::analysis_tasks(
    std::size_t core) const {
  std::vector<dse::AnalysisTask> tasks;
  for (const auto& [label, inst] : instances_) {
    if (!inst.running || inst.core != core) continue;
    auto app_tasks = dse::tasks_on(inst.def, ecu_.config().cpu.mips);
    // Key by instance label, not app name: during a staged update two
    // instances of the same app coexist and both need schedule windows.
    for (std::size_t i = 0; i < app_tasks.size(); ++i) {
      app_tasks[i].name = label + "." + inst.def.tasks[i].name;
    }
    tasks.insert(tasks.end(), app_tasks.begin(), app_tasks.end());
  }
  return tasks;
}

bool PlatformNode::install(const model::AppDef& def, AppFactory factory,
                           std::string* reason,
                           const std::string& label_suffix) {
  const std::string label = def.name + label_suffix;
  if (instances_.count(label) > 0) {
    if (reason != nullptr) *reason = "instance '" + label + "' already exists";
    return false;
  }
  // The host rule holds whatever the platform's verification setting:
  // reconfiguration and recovery place apps through install alone.
  std::vector<model::Violation> host;
  if (!model::host_admits(def, *platform_.system_model().ecu(ecu_.name()),
                          &host)) {
    if (reason != nullptr) *reason = "rejected: " + host.front().message;
    return false;
  }
  // Core placement + admission: first core whose task set still admits the
  // newcomer (partitioned multicore scheduling). Without admission control,
  // the least-utilized core is chosen.
  std::size_t chosen_core = 0;
  if (config_.admission_control) {
    const auto incoming = dse::tasks_on(def, ecu_.config().cpu.mips);
    bool admitted = false;
    std::string last_reason;
    for (std::size_t core = 0; core < ecu_.core_count(); ++core) {
      const auto decision = dse::admit(analysis_tasks(core), incoming);
      // The admission test itself costs ECU CPU time (on the tested core).
      ecu_.processor(core).submit("admission",
                                  decision.analysis_instructions, 9,
                                  os::TaskClass::kNonDeterministic, {});
      if (decision.admitted) {
        chosen_core = core;
        admitted = true;
        break;
      }
      last_reason = decision.reason;
    }
    if (!admitted) {
      if (reason != nullptr) *reason = last_reason;
      return false;
    }
  } else {
    double best_utilization = 2.0;
    for (std::size_t core = 0; core < ecu_.core_count(); ++core) {
      double utilization = 0.0;
      for (const auto& task : analysis_tasks(core)) {
        utilization += task.utilization();
      }
      if (utilization < best_utilization) {
        best_utilization = utilization;
        chosen_core = core;
      }
    }
  }
  // Process separation (Sec. 3.1 "Memory"): each app instance gets its own
  // process with a quota.
  const os::ProcessId process =
      ecu_.memory().create_process(label, def.memory_bytes);
  if (process == os::kInvalidProcess) {
    if (reason != nullptr) *reason = "insufficient memory for '" + label + "'";
    return false;
  }
  AppInstance inst;
  inst.def = def;
  inst.app = factory ? factory() : nullptr;
  inst.process = process;
  inst.label = label;
  inst.core = chosen_core;
  if (inst.app == nullptr) {
    ecu_.memory().destroy_process(process);
    if (reason != nullptr) *reason = "no factory for '" + def.name + "'";
    return false;
  }
  if (ecu_.trace() != nullptr &&
      ecu_.trace()->enabled(sim::TraceCategory::kPlatform)) {
    ecu_.trace()->record(ecu_.simulator().now(),
                         sim::TraceCategory::kPlatform, ecu_.name(),
                         "install:" + label);
  }
  instances_.emplace(label, std::move(inst));
  return true;
}

void PlatformNode::bind_tasks(AppInstance& inst) {
  for (const auto& task_def : inst.def.tasks) {
    os::TaskConfig config;
    config.name = inst.label + "." + task_def.name;
    config.task_class =
        inst.def.app_class == model::AppClass::kDeterministic
            ? os::TaskClass::kDeterministic
            : os::TaskClass::kNonDeterministic;
    config.period = task_def.period;
    config.deadline = task_def.deadline;
    config.instructions = task_def.instructions;
    config.execution_jitter = task_def.execution_jitter;
    config.priority = task_def.priority;
    Application* app = inst.app.get();
    const std::string task_name = task_def.name;
    inst.tasks.push_back(ecu_.processor(inst.core).add_task(
        config, [app, task_name] { app->on_task(task_name); }));
  }
}

void PlatformNode::watch_tasks(AppInstance& inst) {
  // DA apps carry strict contracts; NDA (QM) apps are watched too, with a
  // looser miss budget — the degradation manager can only shed a
  // misbehaving best-effort app if the monitor sees it misbehave.
  const bool deterministic =
      inst.def.app_class == model::AppClass::kDeterministic;
  for (std::size_t i = 0; i < inst.def.tasks.size(); ++i) {
    const auto& task_def = inst.def.tasks[i];
    monitor::Contract contract;
    contract.task = inst.tasks[i];
    contract.core = inst.core;
    contract.name = inst.label + "." + task_def.name;
    contract.period = task_def.period;
    contract.deadline =
        task_def.deadline > 0 ? task_def.deadline : task_def.period;
    contract.max_miss_ratio = deterministic ? 0.01 : 0.05;
    contract.process = inst.process;
    contract.max_memory_bytes = inst.def.memory_bytes;
    monitor_->watch(contract);
  }
}

void PlatformNode::offer_provided(AppInstance& inst) {
  for (const auto& interface_name : inst.def.provides) {
    // The offered version is the *interface* version from the model — the
    // owner evolves it with the app (Sec. 2.1).
    const model::InterfaceDef* interface =
        platform_.system_model().interface(interface_name);
    runtime_->offer(platform_.service_id(interface_name),
                    interface != nullptr ? interface->version
                                         : inst.def.version);
  }
}

void PlatformNode::withdraw_provided(AppInstance& inst) {
  for (const auto& interface_name : inst.def.provides) {
    runtime_->stop_offer(platform_.service_id(interface_name));
  }
}

bool PlatformNode::start(const std::string& label, bool shadow) {
  auto it = instances_.find(label);
  if (it == instances_.end() || it->second.running) return false;
  AppInstance& inst = it->second;
  bind_tasks(inst);
  inst.running = true;
  inst.app->set_active(!shadow);
  if (!shadow) offer_provided(inst);
  watch_tasks(inst);

  // Pin required interface versions before the app binds anything: Offers
  // below the pinned version never form a binding.
  for (const auto& [interface_name, min_version] : inst.def.min_versions) {
    runtime_->require_version(platform_.service_id(interface_name),
                              min_version);
  }

  AppContext context;
  context.node = this;
  context.def = &inst.def;
  context.comm = runtime_.get();
  context.simulator = &ecu_.simulator();
  inst.app->on_start(context);

  if (config_.time_triggered &&
      inst.def.app_class == model::AppClass::kDeterministic) {
    resync_schedule();
  }
  if (ecu_.trace() != nullptr &&
      ecu_.trace()->enabled(sim::TraceCategory::kPlatform)) {
    ecu_.trace()->record(ecu_.simulator().now(),
                         sim::TraceCategory::kPlatform, ecu_.name(),
                         std::string(shadow ? "start_shadow:" : "start:") +
                             label);
  }
  return true;
}

void PlatformNode::stop(const std::string& label) {
  auto it = instances_.find(label);
  if (it == instances_.end() || !it->second.running) return;
  AppInstance& inst = it->second;
  inst.app->on_stop();
  if (inst.app->active()) withdraw_provided(inst);
  for (os::TaskId task : inst.tasks) {
    monitor_->unwatch(task);
    ecu_.processor(inst.core).remove_task(task);
  }
  inst.tasks.clear();
  inst.running = false;
  if (ecu_.trace() != nullptr &&
      ecu_.trace()->enabled(sim::TraceCategory::kPlatform)) {
    ecu_.trace()->record(ecu_.simulator().now(),
                         sim::TraceCategory::kPlatform, ecu_.name(),
                         "stop:" + label);
  }
  if (config_.time_triggered &&
      inst.def.app_class == model::AppClass::kDeterministic) {
    resync_schedule();
  }
}

void PlatformNode::uninstall(const std::string& label) {
  auto it = instances_.find(label);
  if (it == instances_.end()) return;
  if (it->second.running) stop(label);
  ecu_.memory().destroy_process(it->second.process);
  instances_.erase(it);
  if (ecu_.trace() != nullptr &&
      ecu_.trace()->enabled(sim::TraceCategory::kPlatform)) {
    ecu_.trace()->record(ecu_.simulator().now(),
                         sim::TraceCategory::kPlatform, ecu_.name(),
                         "uninstall:" + label);
  }
}

void PlatformNode::redirect(const std::string& from_label,
                            const std::string& to_label) {
  AppInstance* from = instance(from_label);
  AppInstance* to = instance(to_label);
  if (from == nullptr || to == nullptr) return;
  // Atomic on this node: the old instance stops owning outputs, the new one
  // takes over offers and handlers within one simulation instant.
  from->app->set_active(false);
  withdraw_provided(*from);
  to->app->set_active(true);
  offer_provided(*to);
  if (ecu_.trace() != nullptr &&
      ecu_.trace()->enabled(sim::TraceCategory::kPlatform)) {
    ecu_.trace()->record(ecu_.simulator().now(),
                         sim::TraceCategory::kPlatform, ecu_.name(),
                         "redirect:" + from_label + "->" + to_label);
  }
}

void PlatformNode::promote(const std::string& label) {
  AppInstance* inst = instance(label);
  if (inst == nullptr || !inst->running || inst->app->active()) return;
  inst->app->set_active(true);
  offer_provided(*inst);
  if (ecu_.trace() != nullptr &&
      ecu_.trace()->enabled(sim::TraceCategory::kPlatform)) {
    ecu_.trace()->record(ecu_.simulator().now(),
                         sim::TraceCategory::kPlatform, ecu_.name(),
                         "promote:" + label);
  }
}

void PlatformNode::demote(const std::string& label) {
  AppInstance* inst = instance(label);
  if (inst == nullptr || !inst->app || !inst->app->active()) return;
  inst->app->set_active(false);
  withdraw_provided(*inst);
  if (ecu_.trace() != nullptr &&
      ecu_.trace()->enabled(sim::TraceCategory::kPlatform)) {
    ecu_.trace()->record(ecu_.simulator().now(),
                         sim::TraceCategory::kPlatform, ecu_.name(),
                         "demote:" + label);
  }
}

bool PlatformNode::resync_schedule(std::string* reason) {
  bool all_ok = true;
  for (std::size_t core = 0; core < tts_.size(); ++core) {
    if (tts_[core] == nullptr) continue;
    const auto tasks = analysis_tasks(core);
    // Resilient backend path: a fresh artifact or a cached one for this
    // exact topology installs normally; an ECU-local admission verdict
    // (backend down, nothing cached) keeps the previous TT table — the
    // task set is RTA-schedulable, so running stale is safe — and reports
    // failure so the caller's cadence retries once the uplink heals.
    const auto outcome = platform_.backend_client().synthesize(
        tasks, ecu_.config().cpu.mips,
        ::dynaplat::backend::Criticality::kResync);
    if (outcome.locally_admitted || !outcome.ok ||
        !outcome.artifact.feasible || !outcome.artifact.validated) {
      if (reason != nullptr) {
        *reason = outcome.source ==
                          ::dynaplat::backend::BackendOutcome::Source::kBackend
                      ? outcome.artifact.reason
                      : std::string("backend unreachable (") +
                            ::dynaplat::backend::to_string(outcome.source) +
                            " fallback)";
      }
      all_ok = false;
      continue;
    }
    const auto& artifact = outcome.artifact;
    // Map table task indices back to the processor's TaskIds by name.
    std::map<std::string, os::TaskId> by_name;
    for (const auto& [label, inst] : instances_) {
      if (!inst.running || inst.core != core) continue;
      for (std::size_t i = 0; i < inst.def.tasks.size(); ++i) {
        // analysis_tasks() names tasks "<label>.<task>".
        by_name[label + "." + inst.def.tasks[i].name] = inst.tasks[i];
      }
    }
    std::vector<os::TtWindow> windows;
    for (const auto& window : artifact.table.windows) {
      const auto& analysis_task = tasks[window.task];
      auto it = by_name.find(analysis_task.name);
      if (it == by_name.end()) continue;
      windows.push_back(
          os::TtWindow{window.offset, window.length, it->second});
    }
    tts_[core]->install_table(artifact.table.cycle, std::move(windows));
  }
  return all_ok;
}

AppInstance* PlatformNode::instance(const std::string& label) {
  auto it = instances_.find(label);
  return it == instances_.end() ? nullptr : &it->second;
}

const AppInstance* PlatformNode::instance(const std::string& label) const {
  auto it = instances_.find(label);
  return it == instances_.end() ? nullptr : &it->second;
}

std::vector<std::string> PlatformNode::instance_labels() const {
  std::vector<std::string> out;
  out.reserve(instances_.size());
  for (const auto& [label, inst] : instances_) out.push_back(label);
  return out;
}

std::vector<std::string> PlatformNode::running_instances() const {
  std::vector<std::string> out;
  for (const auto& [label, inst] : instances_) {
    if (inst.running) out.push_back(label);
  }
  return out;
}

void PlatformNode::persist(const std::string& key,
                           std::vector<std::uint8_t> value) {
  persistence_[key] = std::move(value);
}

std::optional<std::vector<std::uint8_t>> PlatformNode::recall(
    const std::string& key) const {
  auto it = persistence_.find(key);
  if (it == persistence_.end()) return std::nullopt;
  return it->second;
}

}  // namespace dynaplat::platform
