// Runtime update engine (paper Sec. 3.2).
//
// Three strategies, compared in E3:
//
//   staged (the paper's proposal for deterministic apps):
//     (1) start the updated binary in parallel (shadow, not offering),
//     (2) synchronize internal state old -> new,
//     (3) redirect all traffic to the new instance,
//     (4) stop the old version.
//     Every phase is health-verified; any failure rolls back to the old
//     version. Service ownership never gaps, so downtime is ~zero.
//
//   stop_restart (how NDAs and today's firmware images update):
//     stop -> uninstall -> verify/flash -> install -> start. The service is
//     down for the whole middle.
//
//   central_switch (the naive distributed alternative the paper warns
//     about): old stops at T, new starts at T + epsilon, where epsilon is
//     the clock-synchronization error between the coordinating parties —
//     "high accuracy clock synchronization is required and a single point
//     of failure is created".
#pragma once

#include <functional>
#include <string>

#include "platform/platform.hpp"

namespace dynaplat::platform {

struct UpdateConfig {
  /// CPU instructions to verify/unpack the package before installing
  /// (signature check + decompression). Staged pays this while the old
  /// version still serves; stop-restart pays it inside the outage.
  std::uint64_t preinstall_instructions = 5'000'000;
  /// Clock-sync error of the central_switch baseline.
  sim::Duration clock_error = 20 * sim::kMillisecond;
  /// Fault injection for rollback testing: abort the staged protocol at
  /// this phase (1..4) as if its health verification had failed there.
  /// Every injected abort must leave the original instance serving with a
  /// zero ownership gap and no shadow left on the node. 0 = off.
  int inject_failure_phase = 0;
};

struct UpdateReport {
  bool success = false;
  std::string strategy;
  std::string app;
  std::string reason;
  /// Label of the serving instance after the update ("app#vN" on success,
  /// the original label after a rollback).
  std::string serving_label;
  sim::Time started = 0;
  sim::Time finished = 0;
  /// Interval during which *no* active instance owned the app's services.
  sim::Duration ownership_gap = 0;
  int phase_reached = 0;  ///< staged: 1..4
};

class UpdateManager {
 public:
  explicit UpdateManager(DynamicPlatform& platform) : platform_(platform) {}

  using Done = std::function<void(UpdateReport)>;

  /// The paper's 4-phase staged update of `app` (currently served by
  /// `current_label` on `node`) to `new_def` built by `factory`.
  void staged_update(PlatformNode& node, const std::string& current_label,
                     model::AppDef new_def, AppFactory factory,
                     UpdateConfig config, Done done);

  /// Cross-node variant of the staged protocol (the recovery
  /// orchestrator's workhorse, Sec. 3.3): moves the instance serving
  /// `label` on `from` to `to` through the same four phases — shadow on
  /// the target, warm-up + health check, state sync, then an atomic
  /// ownership handover (demote on `from`, promote on `to`) and removal
  /// of the origin instance. Service ownership never gaps; any phase
  /// failure leaves the origin instance serving and the target clean.
  /// The migrated instance lands under the plain app name on `to`.
  void staged_migration(PlatformNode& from, const std::string& label,
                        PlatformNode& to, UpdateConfig config, Done done);

  /// Baseline: stop, verify, reinstall, restart.
  void stop_restart_update(PlatformNode& node,
                           const std::string& current_label,
                           model::AppDef new_def, AppFactory factory,
                           UpdateConfig config, Done done);

  /// Baseline: centrally coordinated switchover with clock error.
  void central_switch_update(PlatformNode& node,
                             const std::string& current_label,
                             model::AppDef new_def, AppFactory factory,
                             UpdateConfig config, Done done);

  /// One step of a distributed update path.
  struct UpdateStep {
    std::string ecu;            ///< node hosting the instance
    std::string current_label;  ///< label currently serving
    model::AppDef new_def;
    AppFactory factory;
  };

  struct DistributedReport {
    bool success = false;
    std::string reason;
    /// Reports of the steps that ran, in path order. On failure the first
    /// non-successful entry is the step that aborted the path; all earlier
    /// steps completed and stay in place (the paper's per-step safety
    /// argument: each intermediate configuration is itself verified).
    std::vector<UpdateReport> steps;
  };
  using DistributedDone = std::function<void(DistributedReport)>;

  /// Updates a distributed function "step-by-step via defined update paths"
  /// (Sec. 3.2): each step is a full staged update, and the next step only
  /// starts after the previous one completed and the updated instance
  /// stayed healthy for one shadow warm-up period. A failing step stops the
  /// path — earlier steps remain (every intermediate mix of old and new
  /// versions must itself be a safe configuration, which is why interface
  /// versions are checked at bind time).
  void distributed_update(std::vector<UpdateStep> path, UpdateConfig config,
                          DistributedDone done);

 private:
  void run_distributed_step(std::shared_ptr<std::vector<UpdateStep>> path,
                            std::size_t index, UpdateConfig config,
                            std::shared_ptr<DistributedReport> report,
                            DistributedDone done);

  DynamicPlatform& platform_;
};

}  // namespace dynaplat::platform
