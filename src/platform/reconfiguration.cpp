#include "platform/reconfiguration.hpp"

#include <algorithm>

namespace dynaplat::platform {

ReconfigurationManager::ReconfigurationManager(DynamicPlatform& platform,
                                               ReconfigConfig config)
    : platform_(platform), config_(config) {}

ReconfigurationManager::~ReconfigurationManager() { disengage(); }

void ReconfigurationManager::engage() {
  if (engaged_) return;
  engaged_ = true;
  sweeper_ = platform_.simulator().schedule_every(
      platform_.simulator().now() + config_.check_period,
      config_.check_period, [this] { sweep(); });
}

void ReconfigurationManager::disengage() {
  if (!engaged_) return;
  engaged_ = false;
  platform_.simulator().cancel(sweeper_);
  sweeper_ = {};
}

bool ReconfigurationManager::alive_somewhere(const std::string& app) {
  for (const auto& ecu_def : platform_.system_model().ecus()) {
    PlatformNode* node = platform_.node(ecu_def.name);
    if (node == nullptr || node->ecu().failed()) continue;
    const AppInstance* inst = node->instance(app);
    if (inst != nullptr && inst->running) return true;
  }
  return false;
}

std::string ReconfigurationManager::place(
    const model::AppDef& def, const std::vector<std::string>& preferred,
    const std::string& exclude_ecu) {
  AppFactory factory = platform_.factory_for(def.name);
  if (!factory) return {};

  auto try_node = [&](const std::string& ecu_name) -> bool {
    if (ecu_name == exclude_ecu) return false;
    PlatformNode* node = platform_.node(ecu_name);
    if (node == nullptr || node->ecu().failed()) return false;
    if (node->hosts(def.name)) return false;  // stale duplicate
    std::string why;
    if (!node->install(def, factory, &why)) return false;
    if (!node->start(def.name)) {
      node->uninstall(def.name);
      return false;
    }
    return true;
  };

  for (const auto& candidate : preferred) {
    if (try_node(candidate)) return candidate;
  }
  // Then any node with capacity, outside the modeled candidate list.
  for (const auto& ecu_def : platform_.system_model().ecus()) {
    if (std::find(preferred.begin(), preferred.end(), ecu_def.name) !=
        preferred.end()) {
      continue;  // already tried
    }
    if (try_node(ecu_def.name)) return ecu_def.name;
  }
  return {};
}

void ReconfigurationManager::sweep() {
  if (!engaged_) return;
  previously_stranded_ = stranded_;
  stranded_.clear();
  // Collect every displaced app first, then place heaviest-first
  // (first-fit decreasing): greedy placement in declaration order packed
  // small apps early and stranded the big ones fragmentation could no
  // longer fit.
  std::vector<std::pair<const model::AppDef*,
                        const model::DeploymentDef::Binding*>>
      displaced;
  for (const auto& binding : platform_.deployment().bindings) {
    const model::AppDef* def =
        platform_.system_model().app(binding.app);
    if (def == nullptr) continue;
    // Replicated apps: the RedundancyManager owns their failover.
    if (def->replicas > 1) continue;
    if (alive_somewhere(def->name)) continue;
    displaced.emplace_back(def, &binding);
  }
  std::stable_sort(displaced.begin(), displaced.end(),
                   [](const auto& a, const auto& b) {
                     // mips-independent ordering: same reference speed for
                     // both sides.
                     return a.first->utilization_on(1'000) >
                            b.first->utilization_on(1'000);
                   });
  for (const auto& [def, binding_ptr] : displaced) {
    const auto& binding = *binding_ptr;

    // Find the dead host (for reporting + exclusion).
    std::string dead_host;
    for (const auto& candidate : binding.candidates) {
      PlatformNode* node = platform_.node(candidate);
      if (node != nullptr && node->hosts(def->name)) {
        dead_host = candidate;
        break;
      }
    }
    // Also consider earlier migrations' hosts.
    for (auto it = migrations_.rbegin(); it != migrations_.rend(); ++it) {
      if (it->app == def->name && it->success) {
        PlatformNode* node = platform_.node(it->to_ecu);
        if (node != nullptr && node->hosts(def->name)) {
          dead_host = it->to_ecu;
        }
        break;
      }
    }

    Migration migration;
    migration.at = platform_.simulator().now();
    migration.app = def->name;
    migration.from_ecu = dead_host;
    migration.to_ecu = place(*def, binding.candidates, dead_host);
    migration.success = !migration.to_ecu.empty();
    sim::Trace* trace = platform_.vehicle_trace();
    const bool was_stranded =
        std::find(previously_stranded_.begin(), previously_stranded_.end(),
                  def->name) != previously_stranded_.end();
    if (!migration.success) {
      stranded_.push_back(def->name);
      // Record the failure once per stranding episode, not per sweep; the
      // placement itself is retried every sweep (capacity may free up).
      if (!was_stranded) {
        migrations_.push_back(migration);
        if (trace != nullptr) {
          trace->metrics().counter("reconfig.failed_migrations").add();
          // A stranding episode renders as a span on the "reconfig" lane:
          // open while the app has no live host.
          if (trace->enabled(sim::TraceCategory::kPlatform)) {
            trace->record(migration.at, sim::TraceCategory::kPlatform,
                          "reconfig", "stranded:" + migration.app, 0,
                          obs::EventType::kBegin);
          }
        }
      }
    } else {
      migrations_.push_back(migration);
      if (trace != nullptr) {
        trace->metrics().counter("reconfig.migrations").add();
        if (was_stranded &&
            trace->enabled(sim::TraceCategory::kPlatform)) {
          trace->record(migration.at, sim::TraceCategory::kPlatform,
                        "reconfig", "stranded:" + migration.app, 0,
                        obs::EventType::kEnd);
        }
      }
    }
    if (migration.success && platform_.node(migration.to_ecu) != nullptr) {
      auto* target = platform_.node(migration.to_ecu)->ecu().trace();
      if (target != nullptr &&
          target->enabled(sim::TraceCategory::kPlatform)) {
        target->record(migration.at, sim::TraceCategory::kPlatform,
                       migration.to_ecu, "reconfig:" + migration.app);
      }
    }
  }
}

}  // namespace dynaplat::platform
