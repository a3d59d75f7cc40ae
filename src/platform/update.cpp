#include "platform/update.hpp"

#include <memory>

namespace dynaplat::platform {
namespace {

// Phase 1 -> 2: how long the shadow instance warms up under observation.
// The update aborts if the shadow misses any deadline in that time.
constexpr sim::Duration kParallelWarmup = 50 * sim::kMillisecond;

std::string versioned_label(const model::AppDef& def) {
  return def.name + "#v" + std::to_string(def.version);
}

// Update phases render as nested spans on the "<ecu>/update" timeline lane
// (obs/export.hpp): an outer span for the whole protocol, inner spans per
// phase. Every early-return path must close its open spans, or the exporter
// drops them as unbalanced.
void phase_mark(PlatformNode& node, const char* name, bool begin) {
  sim::Trace* trace = node.ecu().trace();
  if (trace == nullptr) return;
  // Coverage counts entered phases even when the trace ring is masked off.
  if (begin) trace->coverage().hit(std::string("update.") + name);
  if (!trace->enabled(sim::TraceCategory::kPlatform)) return;
  trace->record(node.ecu().simulator().now(), sim::TraceCategory::kPlatform,
                node.ecu().name() + "/update", name, 0,
                begin ? obs::EventType::kBegin : obs::EventType::kEnd);
}

std::uint64_t shadow_misses(PlatformNode& node, const std::string& label) {
  const AppInstance* inst = node.instance(label);
  if (inst == nullptr) return 0;
  std::uint64_t misses = 0;
  auto& cpu = node.ecu().processor(inst->core);
  for (os::TaskId task : inst->tasks) {
    if (cpu.has_task(task)) misses += cpu.stats(task).deadline_misses;
  }
  return misses;
}

}  // namespace

void UpdateManager::staged_update(PlatformNode& node,
                                  const std::string& current_label,
                                  model::AppDef new_def, AppFactory factory,
                                  UpdateConfig config, Done done) {
  auto report = std::make_shared<UpdateReport>();
  report->strategy = "staged";
  report->app = new_def.name;
  report->started = platform_.simulator().now();
  report->serving_label = current_label;
  const std::string new_label = versioned_label(new_def);
  phase_mark(node, "update:staged", true);
  phase_mark(node, "pkg_verify", true);

  // Package verification runs while the old version still serves: no
  // ownership gap accrues here.
  node.ecu().processor().submit(
      "pkg_verify", config.preinstall_instructions, 9,
      os::TaskClass::kNonDeterministic,
      [this, &node, current_label, new_def, new_label, factory, config,
       done, report]() mutable {
        auto& simulator = platform_.simulator();
        phase_mark(node, "pkg_verify", false);
        // Phase 1: start the new version in parallel (shadow).
        report->phase_reached = 1;
        phase_mark(node, "phase1_shadow", true);
        std::string why;
        const std::string suffix = "#v" + std::to_string(new_def.version);
        if (!node.install(new_def, factory, &why, suffix) ||
            !node.start(new_label, /*shadow=*/true)) {
          phase_mark(node, "phase1_shadow", false);
          phase_mark(node, "update:staged", false);
          report->success = false;
          report->reason = "phase 1 failed: " + why;
          report->finished = simulator.now();
          done(*report);
          return;
        }
        if (config.inject_failure_phase == 1) {
          node.uninstall(new_label);
          phase_mark(node, "phase1_shadow", false);
          phase_mark(node, "update:staged", false);
          report->success = false;
          report->reason = "phase 1 rollback: injected fault";
          report->finished = simulator.now();
          done(*report);
          return;
        }
        phase_mark(node, "phase1_shadow", false);
        phase_mark(node, "warmup", true);
        // Phase 2 after warm-up: verify shadow health, then sync state.
        simulator.schedule_in(kParallelWarmup, [this, &node, current_label,
                                                new_label, config, done,
                                                report] {
          auto& simulator = platform_.simulator();
          phase_mark(node, "warmup", false);
          if (shadow_misses(node, new_label) > 0) {
            // Rollback: the new version cannot hold its deadlines here.
            node.uninstall(new_label);
            phase_mark(node, "update:staged", false);
            report->success = false;
            report->reason = "phase 2 rollback: shadow missed deadlines";
            report->finished = simulator.now();
            done(*report);
            return;
          }
          report->phase_reached = 2;
          phase_mark(node, "phase2_state_sync", true);
          AppInstance* old_inst = node.instance(current_label);
          AppInstance* new_inst = node.instance(new_label);
          if (old_inst == nullptr || new_inst == nullptr) {
            phase_mark(node, "phase2_state_sync", false);
            phase_mark(node, "update:staged", false);
            report->success = false;
            report->reason = "phase 2 failed: instance vanished";
            report->finished = simulator.now();
            done(*report);
            return;
          }
          const auto state = old_inst->app->serialize_state();
          new_inst->app->restore_state(state);
          // State transfer costs CPU proportional to its size.
          const std::uint64_t sync_cost = 1'000 + 50ull * state.size();
          node.ecu().processor().submit(
              "state_sync", sync_cost, 9, os::TaskClass::kNonDeterministic,
              [this, &node, current_label, new_label, config, done, report] {
                auto& simulator = platform_.simulator();
                phase_mark(node, "phase2_state_sync", false);
                if (config.inject_failure_phase == 2) {
                  node.uninstall(new_label);
                  phase_mark(node, "update:staged", false);
                  report->success = false;
                  report->reason = "phase 2 rollback: injected fault";
                  report->finished = simulator.now();
                  done(*report);
                  return;
                }
                // Phase 3: redirect traffic (atomic on this node).
                report->phase_reached = 3;
                phase_mark(node, "phase3_redirect", true);
                node.redirect(current_label, new_label);
                if (config.inject_failure_phase == 3) {
                  // Undo the redirect in the same instant: ownership flips
                  // back before any traffic could be lost.
                  node.redirect(new_label, current_label);
                  node.uninstall(new_label);
                  phase_mark(node, "phase3_redirect", false);
                  phase_mark(node, "update:staged", false);
                  report->success = false;
                  report->reason = "phase 3 rollback: injected fault";
                  report->finished = simulator.now();
                  done(*report);
                  return;
                }
                phase_mark(node, "phase3_redirect", false);
                // Phase 4: stop and remove the old version.
                phase_mark(node, "phase4_stop_old", true);
                simulator.schedule_in(sim::kMillisecond, [&node,
                                                          current_label,
                                                          new_label, config,
                                                          done, report,
                                                          this] {
                  report->phase_reached = 4;
                  if (config.inject_failure_phase == 4) {
                    // The old version is still installed: hand ownership
                    // back and discard the new instance.
                    node.redirect(new_label, current_label);
                    node.uninstall(new_label);
                    phase_mark(node, "phase4_stop_old", false);
                    phase_mark(node, "update:staged", false);
                    report->success = false;
                    report->reason = "phase 4 rollback: injected fault";
                    report->finished = platform_.simulator().now();
                    done(*report);
                    return;
                  }
                  node.uninstall(current_label);
                  phase_mark(node, "phase4_stop_old", false);
                  phase_mark(node, "update:staged", false);
                  report->serving_label = new_label;
                  report->success = true;
                  report->reason = "staged update complete";
                  report->ownership_gap = 0;  // redirect was atomic
                  report->finished = platform_.simulator().now();
                  done(*report);
                });
              });
        });
      });
}

void UpdateManager::staged_migration(PlatformNode& from,
                                     const std::string& label,
                                     PlatformNode& to, UpdateConfig config,
                                     Done done) {
  auto report = std::make_shared<UpdateReport>();
  report->strategy = "staged_migration";
  report->started = platform_.simulator().now();
  report->serving_label = label;
  const AppInstance* origin = from.instance(label);
  if (origin == nullptr) {
    report->success = false;
    report->reason = "'" + label + "' not hosted on " + from.ecu().name();
    report->finished = report->started;
    done(*report);
    return;
  }
  const model::AppDef def = origin->def;
  report->app = def.name;
  AppFactory factory = platform_.factory_for(def.name);
  if (!factory) {
    report->success = false;
    report->reason = "no registered package for '" + def.name + "'";
    report->finished = report->started;
    done(*report);
    return;
  }
  const std::string new_label = def.name;  // plain name on the target
  phase_mark(to, "update:migration", true);
  phase_mark(to, "pkg_verify", true);

  // The target verifies/unpacks while the origin still serves.
  to.ecu().processor().submit(
      "pkg_verify", config.preinstall_instructions, 9,
      os::TaskClass::kNonDeterministic,
      [this, &from, &to, label, def, new_label, factory, config, done,
       report]() mutable {
        auto& simulator = platform_.simulator();
        phase_mark(to, "pkg_verify", false);
        // Phase 1: shadow instance on the target node.
        report->phase_reached = 1;
        phase_mark(to, "phase1_shadow", true);
        std::string why;
        if (!to.install(def, factory, &why) ||
            !to.start(new_label, /*shadow=*/true)) {
          phase_mark(to, "phase1_shadow", false);
          phase_mark(to, "update:migration", false);
          report->success = false;
          report->reason = "phase 1 failed: " + why;
          report->finished = simulator.now();
          done(*report);
          return;
        }
        if (config.inject_failure_phase == 1) {
          to.uninstall(new_label);
          phase_mark(to, "phase1_shadow", false);
          phase_mark(to, "update:migration", false);
          report->success = false;
          report->reason = "phase 1 rollback: injected fault";
          report->finished = simulator.now();
          done(*report);
          return;
        }
        phase_mark(to, "phase1_shadow", false);
        phase_mark(to, "warmup", true);
        simulator.schedule_in(kParallelWarmup, [this, &from, &to, label,
                                                new_label, config, done,
                                                report] {
          auto& simulator = platform_.simulator();
          phase_mark(to, "warmup", false);
          if (shadow_misses(to, new_label) > 0) {
            to.uninstall(new_label);
            phase_mark(to, "update:migration", false);
            report->success = false;
            report->reason = "phase 2 rollback: shadow missed deadlines";
            report->finished = simulator.now();
            done(*report);
            return;
          }
          report->phase_reached = 2;
          phase_mark(to, "phase2_state_sync", true);
          AppInstance* old_inst = from.instance(label);
          AppInstance* new_inst = to.instance(new_label);
          if (old_inst == nullptr || new_inst == nullptr) {
            to.uninstall(new_label);
            phase_mark(to, "phase2_state_sync", false);
            phase_mark(to, "update:migration", false);
            report->success = false;
            report->reason = "phase 2 failed: instance vanished";
            report->finished = simulator.now();
            done(*report);
            return;
          }
          const auto state = old_inst->app->serialize_state();
          new_inst->app->restore_state(state);
          const std::uint64_t sync_cost = 1'000 + 50ull * state.size();
          to.ecu().processor().submit(
              "state_sync", sync_cost, 9, os::TaskClass::kNonDeterministic,
              [this, &from, &to, label, new_label, config, done, report] {
                auto& simulator = platform_.simulator();
                phase_mark(to, "phase2_state_sync", false);
                if (config.inject_failure_phase == 2) {
                  to.uninstall(new_label);
                  phase_mark(to, "update:migration", false);
                  report->success = false;
                  report->reason = "phase 2 rollback: injected fault";
                  report->finished = simulator.now();
                  done(*report);
                  return;
                }
                // Phase 3: atomic cross-node ownership handover — the
                // origin stops offering and the target takes over within
                // one simulation instant, so ownership never gaps.
                report->phase_reached = 3;
                phase_mark(to, "phase3_handover", true);
                from.demote(label);
                to.promote(new_label);
                if (config.inject_failure_phase == 3) {
                  to.demote(new_label);
                  from.promote(label);
                  to.uninstall(new_label);
                  phase_mark(to, "phase3_handover", false);
                  phase_mark(to, "update:migration", false);
                  report->success = false;
                  report->reason = "phase 3 rollback: injected fault";
                  report->finished = simulator.now();
                  done(*report);
                  return;
                }
                phase_mark(to, "phase3_handover", false);
                // Phase 4: remove the origin instance.
                phase_mark(to, "phase4_stop_origin", true);
                simulator.schedule_in(sim::kMillisecond, [this, &from, &to,
                                                          label, new_label,
                                                          config, done,
                                                          report] {
                  report->phase_reached = 4;
                  if (config.inject_failure_phase == 4) {
                    to.demote(new_label);
                    from.promote(label);
                    to.uninstall(new_label);
                    phase_mark(to, "phase4_stop_origin", false);
                    phase_mark(to, "update:migration", false);
                    report->success = false;
                    report->reason = "phase 4 rollback: injected fault";
                    report->finished = platform_.simulator().now();
                    done(*report);
                    return;
                  }
                  from.uninstall(label);
                  phase_mark(to, "phase4_stop_origin", false);
                  phase_mark(to, "update:migration", false);
                  report->serving_label = new_label;
                  report->success = true;
                  report->reason = "staged migration complete";
                  report->ownership_gap = 0;  // handover was atomic
                  report->finished = platform_.simulator().now();
                  done(*report);
                });
              });
        });
      });
}

void UpdateManager::stop_restart_update(PlatformNode& node,
                                        const std::string& current_label,
                                        model::AppDef new_def,
                                        AppFactory factory,
                                        UpdateConfig config, Done done) {
  auto report = std::make_shared<UpdateReport>();
  report->strategy = "stop_restart";
  report->app = new_def.name;
  report->started = platform_.simulator().now();
  const std::string new_label = versioned_label(new_def);
  phase_mark(node, "update:stop_restart", true);

  // Service goes down immediately.
  node.uninstall(current_label);
  const sim::Time down_since = platform_.simulator().now();

  // Verification/flash happens inside the outage.
  node.ecu().processor().submit(
      "pkg_verify", config.preinstall_instructions, 9,
      os::TaskClass::kNonDeterministic,
      [this, &node, new_def, new_label, factory, done, report,
       down_since]() mutable {
        std::string why;
        if (!node.install(new_def, factory, &why,
                          "#v" + std::to_string(new_def.version)) ||
            !node.start(new_label)) {
          phase_mark(node, "update:stop_restart", false);
          report->success = false;
          report->reason = "reinstall failed: " + why;
          report->finished = platform_.simulator().now();
          report->ownership_gap = report->finished - down_since;
          done(*report);
          return;
        }
        phase_mark(node, "update:stop_restart", false);
        report->success = true;
        report->serving_label = new_label;
        report->reason = "stop-restart complete";
        report->finished = platform_.simulator().now();
        report->ownership_gap = report->finished - down_since;
        done(*report);
      });
}

void UpdateManager::distributed_update(std::vector<UpdateStep> path,
                                       UpdateConfig config,
                                       DistributedDone done) {
  auto report = std::make_shared<DistributedReport>();
  if (path.empty()) {
    report->success = true;
    report->reason = "empty path";
    done(*report);
    return;
  }
  auto shared_path =
      std::make_shared<std::vector<UpdateStep>>(std::move(path));
  run_distributed_step(shared_path, 0, config, report, std::move(done));
}

void UpdateManager::run_distributed_step(
    std::shared_ptr<std::vector<UpdateStep>> path, std::size_t index,
    UpdateConfig config, std::shared_ptr<DistributedReport> report,
    DistributedDone done) {
  if (index >= path->size()) {
    report->success = true;
    report->reason = "all steps complete";
    done(*report);
    return;
  }
  UpdateStep& step = (*path)[index];
  PlatformNode* node = platform_.node(step.ecu);
  if (node == nullptr || !node->hosts(step.current_label)) {
    report->success = false;
    report->reason = "step " + std::to_string(index) + ": '" +
                     step.current_label + "' not hosted on " + step.ecu;
    done(*report);
    return;
  }
  staged_update(
      *node, step.current_label, step.new_def, step.factory, config,
      [this, path, index, config, report,
       done = std::move(done)](UpdateReport step_report) mutable {
        report->steps.push_back(step_report);
        if (!step_report.success) {
          report->success = false;
          report->reason = "aborted at step " + std::to_string(index) +
                           ": " + step_report.reason;
          done(*report);
          return;
        }
        // Soak the new intermediate configuration before touching the next
        // component ("verifying the safety of every intermediate update
        // step").
        platform_.simulator().schedule_in(
            kParallelWarmup,
            [this, path, index, config, report,
             done = std::move(done)]() mutable {
              run_distributed_step(path, index + 1, config, report,
                                   std::move(done));
            });
      });
}

void UpdateManager::central_switch_update(PlatformNode& node,
                                          const std::string& current_label,
                                          model::AppDef new_def,
                                          AppFactory factory,
                                          UpdateConfig config, Done done) {
  auto report = std::make_shared<UpdateReport>();
  report->strategy = "central_switch";
  report->app = new_def.name;
  report->started = platform_.simulator().now();
  const std::string new_label = versioned_label(new_def);
  phase_mark(node, "update:central_switch", true);

  // Pre-stage the new version (shadow) like the staged protocol would --
  // the difference under test is the *switchover*, not the staging.
  std::string why;
  if (!node.install(new_def, factory, &why,
                    "#v" + std::to_string(new_def.version)) ||
      !node.start(new_label, /*shadow=*/true)) {
    phase_mark(node, "update:central_switch", false);
    report->success = false;
    report->reason = "staging failed: " + why;
    report->finished = platform_.simulator().now();
    done(*report);
    return;
  }
  auto& simulator = platform_.simulator();
  const sim::Time switch_at = simulator.now() + kParallelWarmup;
  // The "stop old" and "start new" commands are issued for the same instant
  // by the central coordinator, but arrive skewed by the clock error.
  simulator.schedule_at(switch_at, [&node, current_label] {
    AppInstance* old_inst = node.instance(current_label);
    if (old_inst != nullptr) old_inst->app->set_active(false);
  });
  simulator.schedule_at(
      switch_at + config.clock_error,
      [this, &node, current_label, new_label, config, done, report] {
        node.redirect(current_label, new_label);
        node.uninstall(current_label);
        phase_mark(node, "update:central_switch", false);
        report->success = true;
        report->serving_label = new_label;
        report->reason = "central switch complete";
        report->ownership_gap = config.clock_error;
        report->finished = platform_.simulator().now();
        done(*report);
      });
}

}  // namespace dynaplat::platform
