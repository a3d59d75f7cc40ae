// Per-ECU platform layer (one "dynamic platform" slice on one ECU).
//
// Owns the middleware runtime, runtime monitor and the application instances
// hosted on this ECU. Responsible for the per-node pieces of the paper's
// platform services: lifecycle (install/start/stop/uninstall), freedom from
// interference (process separation, admission control, TT schedule
// resynchronization), persistence and logging.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dse/admission.hpp"
#include "middleware/runtime.hpp"
#include "monitor/runtime_monitor.hpp"
#include "os/ecu.hpp"
#include "platform/application.hpp"

namespace dynaplat::platform {

class DynamicPlatform;

struct NodeConfig {
  /// Use a synthesized time-triggered table for deterministic apps
  /// (platform enforcement on; ablation for E1 turns it off).
  bool time_triggered = true;
  /// Run the local admission test before installing (Sec. 5.3 [6], [19]).
  bool admission_control = true;
  middleware::RuntimeConfig middleware = {};
};

/// One hosted application instance. An app may briefly have two instances
/// on a node during a staged update (old + shadow).
struct AppInstance {
  model::AppDef def;
  std::unique_ptr<Application> app;
  os::ProcessId process = os::kInvalidProcess;
  std::vector<os::TaskId> tasks;
  bool running = false;
  /// Instance label: "<app>" or "<app>#<version>" for update shadows.
  std::string label;
  /// Core hosting this instance's tasks (partitioned multicore placement).
  std::size_t core = 0;
};

class PlatformNode {
 public:
  PlatformNode(DynamicPlatform& platform, os::Ecu& ecu, NodeConfig config);
  ~PlatformNode();
  PlatformNode(const PlatformNode&) = delete;
  PlatformNode& operator=(const PlatformNode&) = delete;

  /// Installs an instance: the host rule (model::host_admits against this
  /// node's model ECU), the admission test (dse::admit) and process
  /// creation. The instance is not running yet. Returns false (with
  /// reason) on rejection.
  bool install(const model::AppDef& def, AppFactory factory,
               std::string* reason = nullptr,
               const std::string& label_suffix = "");

  /// Starts a installed instance: binds tasks, offers provided interfaces
  /// (unless shadow), arms monitoring contracts, calls on_start.
  /// `shadow` instances run but neither offer nor publish (update phase 1).
  bool start(const std::string& label, bool shadow = false);

  /// Stops a running instance (tasks removed, offers withdrawn, on_stop).
  void stop(const std::string& label);

  /// Uninstalls: stop + destroy the process.
  void uninstall(const std::string& label);

  /// Makes a shadow instance the owner of the app's services (update
  /// phase 3 "redirect"): registers method handlers, offers interfaces and
  /// flips active flags.
  void redirect(const std::string& from_label, const std::string& to_label);

  /// Promotes a standby instance to active ownership (redundancy failover,
  /// Sec. 3.3): flips the active flag and offers the provided interfaces.
  void promote(const std::string& label);

  /// Demotes an active instance back to standby (the inverse of promote):
  /// clears the active flag and withdraws its offers. Used when a failed
  /// primary returns — the recovered replica must not reclaim services the
  /// standby now owns.
  void demote(const std::string& label);

  AppInstance* instance(const std::string& label);
  const AppInstance* instance(const std::string& label) const;
  std::vector<std::string> running_instances() const;
  /// Every hosted instance label (running or not), sorted — the raw
  /// material for deployment snapshots (platform/recovery.hpp).
  std::vector<std::string> instance_labels() const;
  bool hosts(const std::string& label) const {
    return instances_.count(label) > 0;
  }

  /// Regenerates and installs the TT tables for the current deterministic
  /// task sets of every core (delegated to the backend ScheduleServer).
  bool resync_schedule(std::string* reason = nullptr);

  /// Simple persistence service (Sec. 1.1 "persistence services, e.g. for
  /// configurations") — survives app restarts, not ECU failure.
  void persist(const std::string& key, std::vector<std::uint8_t> value);
  std::optional<std::vector<std::uint8_t>> recall(
      const std::string& key) const;

  middleware::ServiceRuntime& comm() { return *runtime_; }
  monitor::RuntimeMonitor& monitor() { return *monitor_; }
  os::Ecu& ecu() { return ecu_; }
  DynamicPlatform& platform() { return platform_; }
  const NodeConfig& config() const { return config_; }

  /// Current analysis task set of running instances (all cores).
  std::vector<dse::AnalysisTask> analysis_tasks() const;
  /// Analysis task set of the running instances placed on one core.
  std::vector<dse::AnalysisTask> analysis_tasks(std::size_t core) const;

 private:
  void bind_tasks(AppInstance& inst);
  void offer_provided(AppInstance& inst);
  void withdraw_provided(AppInstance& inst);
  void watch_tasks(AppInstance& inst);

  DynamicPlatform& platform_;
  os::Ecu& ecu_;
  NodeConfig config_;
  std::unique_ptr<middleware::ServiceRuntime> runtime_;
  std::unique_ptr<monitor::RuntimeMonitor> monitor_;
  /// Per-core TT schedulers (owned by the processors); empty entries when
  /// time-triggered enforcement is off.
  std::vector<os::TimeTriggeredScheduler*> tts_;
  std::map<std::string, AppInstance> instances_;
  std::map<std::string, std::vector<std::uint8_t>> persistence_;
};

}  // namespace dynaplat::platform
