#include "platform/update.hpp"

#include <memory>

namespace dynaplat::platform {
namespace {

// Phase 1 -> 2: how long the shadow instance warms up under observation.
// The update aborts if the shadow misses any deadline in that time.
constexpr sim::Duration kParallelWarmup = 50 * sim::kMillisecond;

std::string version_suffix(const model::AppDef& def) {
  return "#v" + std::to_string(def.version);
}

std::string versioned_label(const model::AppDef& def) {
  return def.name + version_suffix(def);
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

// What tells an update from a migration in reports and spans.
struct MoveNames {
  const char* strategy;
  const char* span;      // outer span
  const char* phase3;    // handover span
  const char* phase4;    // origin-removal span
  const char* complete;  // success reason
};

constexpr MoveNames kUpdateNames{"staged", "update:staged", "phase3_redirect",
                                 "phase4_stop_old", "staged update complete"};
constexpr MoveNames kMigrationNames{
    "staged_migration", "update:migration", "phase3_handover",
    "phase4_stop_origin", "staged migration complete"};

// One staged move (Sec. 3.2): a shadow of `def` starts on `target`, warms
// up, takes over the state of `origin_label` on `origin`, then owns the
// app's services while the origin instance is removed. An update moves an
// app to its new version on one node; a migration moves it unchanged to
// another node. The spans, CPU jobs and rollbacks are the same.
struct Move {
  Move(PlatformNode& origin, std::string origin_label, PlatformNode& target,
       model::AppDef def, AppFactory factory, std::string suffix,
       const MoveNames& names, UpdateConfig config, UpdateManager::Done done,
       UpdateReport report)
      : origin(origin),
        origin_label(std::move(origin_label)),
        target(target),
        shadow_label(def.name + suffix),
        def(std::move(def)),
        factory(std::move(factory)),
        suffix(std::move(suffix)),
        names(names),
        config(config),
        done(std::move(done)),
        report(std::move(report)) {}

  PlatformNode& origin;
  std::string origin_label;
  PlatformNode& target;
  std::string shadow_label;
  model::AppDef def;
  AppFactory factory;
  std::string suffix;
  const MoveNames& names;
  UpdateConfig config;
  UpdateManager::Done done;
  UpdateReport report;
  const char* phase = nullptr;  // open inner span, inside names.span
  bool shadow_installed = false;
  bool handed_over = false;
};

void open_phase(Move& m, const char* name) {
  m.phase = name;
  phase_mark(m.target, name, true);
}

void close_phase(Move& m) {
  phase_mark(m.target, m.phase, false);
  m.phase = nullptr;
}

// Moves service ownership from `from` on `giver` to `to` on `taker` within
// one simulation instant, so it never gaps: a redirect on one node, demote +
// promote across two.
void hand_over(PlatformNode& giver, const std::string& from,
               PlatformNode& taker, const std::string& to) {
  if (&giver == &taker) {
    giver.redirect(from, to);
  } else {
    giver.demote(from);
    taker.promote(to);
  }
}

// Closes the open spans innermost-first, then reports.
void finish(Move& m, bool success, std::string reason) {
  if (m.phase != nullptr) close_phase(m);
  phase_mark(m.target, m.names.span, false);
  m.report.success = success;
  m.report.reason = std::move(reason);
  if (success) m.report.serving_label = m.shadow_label;
  m.report.finished = m.target.ecu().simulator().now();
  m.done(m.report);
}

// The one abort path: ownership goes back to the origin and the shadow is
// removed before the spans close, so every abort leaves the origin serving
// with a zero ownership gap and the target clean.
void roll_back(Move& m, std::string reason) {
  if (m.handed_over) {
    hand_over(m.target, m.shadow_label, m.origin, m.origin_label);
  }
  if (m.shadow_installed) m.target.uninstall(m.shadow_label);
  finish(m, false, std::move(reason));
}

void run_move(std::shared_ptr<Move> move) {
  Move& m = *move;
  phase_mark(m.target, m.names.span, true);
  open_phase(m, "pkg_verify");
  // Package verification runs while the origin still serves: no ownership
  // gap accrues here.
  m.target.ecu().processor().submit(
      "pkg_verify", m.config.preinstall_instructions, 9,
      os::TaskClass::kNonDeterministic, [move] {
        Move& m = *move;
        close_phase(m);
        // Phase 1: start the shadow (running, neither offering nor
        // publishing).
        m.report.phase_reached = 1;
        open_phase(m, "phase1_shadow");
        std::string why;
        m.shadow_installed = m.target.install(m.def, m.factory, &why, m.suffix);
        if (!m.shadow_installed ||
            !m.target.start(m.shadow_label, /*shadow=*/true)) {
          return roll_back(m, "phase 1 failed: " + why);
        }
        if (m.config.inject_failure_phase == 1) {
          return roll_back(m, "phase 1 rollback: injected fault");
        }
        close_phase(m);
        open_phase(m, "warmup");
        m.target.ecu().simulator().schedule_in(kParallelWarmup, [move] {
          Move& m = *move;
          close_phase(m);
          // Phase 2 after warm-up: verify shadow health, then sync state.
          if (shadow_misses(m.target, m.shadow_label) > 0) {
            return roll_back(m, "phase 2 rollback: shadow missed deadlines");
          }
          m.report.phase_reached = 2;
          open_phase(m, "phase2_state_sync");
          AppInstance* old_inst = m.origin.instance(m.origin_label);
          AppInstance* new_inst = m.target.instance(m.shadow_label);
          if (old_inst == nullptr || new_inst == nullptr) {
            return roll_back(m, "phase 2 failed: instance vanished");
          }
          const auto state = old_inst->app->serialize_state();
          new_inst->app->restore_state(state);
          // State transfer costs CPU proportional to its size.
          const std::uint64_t sync_cost = 1'000 + 50ull * state.size();
          m.target.ecu().processor().submit(
              "state_sync", sync_cost, 9, os::TaskClass::kNonDeterministic,
              [move] {
                Move& m = *move;
                close_phase(m);
                if (m.config.inject_failure_phase == 2) {
                  return roll_back(m, "phase 2 rollback: injected fault");
                }
                m.report.phase_reached = 3;
                open_phase(m, m.names.phase3);
                hand_over(m.origin, m.origin_label, m.target, m.shadow_label);
                m.handed_over = true;
                if (m.config.inject_failure_phase == 3) {
                  return roll_back(m, "phase 3 rollback: injected fault");
                }
                close_phase(m);
                // Phase 4: remove the origin instance.
                open_phase(m, m.names.phase4);
                m.target.ecu().simulator().schedule_in(
                    sim::kMillisecond, [move] {
                      Move& m = *move;
                      m.report.phase_reached = 4;
                      if (m.config.inject_failure_phase == 4) {
                        return roll_back(m,
                                         "phase 4 rollback: injected fault");
                      }
                      m.origin.uninstall(m.origin_label);
                      finish(m, true, m.names.complete);
                    });
              });
        });
      });
}

}  // namespace

void UpdateManager::staged_update(PlatformNode& node,
                                  const std::string& current_label,
                                  model::AppDef new_def, AppFactory factory,
                                  UpdateConfig config, Done done) {
  UpdateReport report;
  report.strategy = kUpdateNames.strategy;
  report.app = new_def.name;
  report.started = platform_.simulator().now();
  report.serving_label = current_label;
  std::string suffix = version_suffix(new_def);
  run_move(std::make_shared<Move>(node, current_label, node, std::move(new_def),
                                  std::move(factory), std::move(suffix),
                                  kUpdateNames, config, std::move(done),
                                  std::move(report)));
}

void UpdateManager::staged_migration(PlatformNode& from,
                                     const std::string& label,
                                     PlatformNode& to, UpdateConfig config,
                                     Done done) {
  UpdateReport report;
  report.strategy = kMigrationNames.strategy;
  report.started = platform_.simulator().now();
  report.serving_label = label;
  const AppInstance* origin = from.instance(label);
  if (origin == nullptr) {
    report.reason = "'" + label + "' not hosted on " + from.ecu().name();
    report.finished = report.started;
    done(report);
    return;
  }
  report.app = origin->def.name;
  AppFactory factory = platform_.factory_for(origin->def.name);
  if (!factory) {
    report.reason = "no registered package for '" + origin->def.name + "'";
    report.finished = report.started;
    done(report);
    return;
  }
  // The migrated instance lands under the plain app name on the target.
  run_move(std::make_shared<Move>(from, label, to, origin->def,
                                  std::move(factory), "", kMigrationNames,
                                  config, std::move(done), std::move(report)));
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
        if (!node.install(new_def, factory, &why, version_suffix(new_def)) ||
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
  if (!node.install(new_def, factory, &why, version_suffix(new_def)) ||
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
