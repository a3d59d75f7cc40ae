// The dynamic platform (paper Fig. 2): the distributed layer hosting
// deterministic and non-deterministic applications side by side across the
// vehicle's ECUs.
//
// The DynamicPlatform owns the *vehicle-wide* concerns:
//   - the system model + deployment and their verification (Sec. 2.2/2.3),
//   - the interface-name -> ServiceId registry and criticality -> network
//     priority mapping (Sec. 3.1 "Hardware Access & Communication"),
//   - the package registry of installable app factories (+ signed packages,
//     Sec. 4.1),
//   - the backend ScheduleServer used by nodes to resynchronize TT tables
//     (Sec. 3.1 "CPU", [21]),
//   - the model-derived access-control matrix (Sec. 4.2).
// Per-ECU mechanics live in PlatformNode; cross-node protocols (staged
// updates, redundancy) in UpdateManager / RedundancyManager.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/client.hpp"
#include "dse/admission.hpp"
#include "model/system_model.hpp"
#include "model/verifier.hpp"
#include "platform/node.hpp"
#include "security/auth.hpp"

namespace dynaplat::platform {

struct PlatformConfig {
  /// Refuse start-up when the verification engine reports errors.
  bool enforce_verification = true;
  /// Authentication mode applied to every node's middleware.
  security::AuthMode auth_mode = security::AuthMode::kNone;
  /// Enforce the model-derived access matrix on every node.
  bool access_control = false;
};

class DynamicPlatform {
 public:
  DynamicPlatform(sim::Simulator& simulator, model::SystemModel system_model,
                  model::DeploymentDef deployment,
                  PlatformConfig config = {});

  /// Registers the per-ECU platform slice. The node name must match an ECU
  /// in the model (std::invalid_argument otherwise).
  PlatformNode& add_node(os::Ecu& ecu, NodeConfig config = {});
  PlatformNode* node(const std::string& ecu_name);
  PlatformNode* node_hosting(const std::string& app_label);
  /// Names of every registered node (vehicle-wide iteration order is the
  /// sorted ECU name, so traversals are deterministic).
  std::vector<std::string> node_names() const;
  /// The vehicle-wide observability sink: the trace of the first node, in
  /// model ECU order, whose ECU has one; nullptr when none does.
  sim::Trace* vehicle_trace();

  /// Registers an installable application version ("the app store").
  void register_app(const std::string& app_name, AppFactory factory);
  AppFactory factory_for(const std::string& app_name) const;

  /// Verifies the model + deployment; with enforce_verification, install_all
  /// refuses on errors.
  std::vector<model::Violation> verify() const;

  /// Installs and starts every deployed app on its node(s) per the
  /// deployment (replicas land on their first N candidates). Returns false
  /// if verification or any installation fails.
  bool install_all(std::string* reason = nullptr);

  // --- Registries ------------------------------------------------------------
  middleware::ServiceId service_id(const std::string& interface_name);
  net::Priority interface_priority(const std::string& interface_name) const;
  const model::SystemModel& system_model() const { return model_; }
  const model::DeploymentDef& deployment() const { return deployment_; }
  const PlatformConfig& config() const { return config_; }
  sim::Simulator& simulator() { return sim_; }

  /// Resilient path to the backend: every vehicle-side synthesis call
  /// (node resync, recovery planning) goes through this client. Defaults
  /// to loopback on the platform's in-process ScheduleServer — zero
  /// behavior change for single-vehicle scenarios.
  ::dynaplat::backend::BackendClient& backend_client() {
    return *backend_client_;
  }

  /// Points the vehicle at a fleet backend service instead of the
  /// loopback engine. Replaces the client (the old one's breaker state,
  /// cache and listeners are discarded), so call this before wiring
  /// degradation / diagnostics listeners onto backend_client().
  backend::BackendClient& connect_backend(
      ::dynaplat::backend::FleetScheduleService& service,
      ::dynaplat::backend::ClientConfig client_config = {});

  security::KeyServer& key_server() { return key_server_; }
  security::AccessMatrix& access_matrix() { return access_matrix_; }

  /// Builds the access matrix from the model: a node may address a service
  /// iff an app deployed on it consumes (or provides) the interface
  /// (Sec. 4.2 "automatically extracted from the modeling approach").
  void derive_access_matrix();

 private:
  sim::Simulator& sim_;
  model::SystemModel model_;
  model::DeploymentDef deployment_;
  PlatformConfig config_;
  model::Verifier verifier_;
  // Backend schedule server, run "in the cloud": its compute cost is not
  // charged to any ECU. Reached only through the loopback backend client.
  dse::ScheduleServer backend_;
  std::unique_ptr<::dynaplat::backend::BackendClient> backend_client_;
  security::KeyServer key_server_;
  security::AccessMatrix access_matrix_;

  std::map<std::string, std::unique_ptr<PlatformNode>> nodes_;
  std::map<std::string, std::unique_ptr<security::AuthenticationService>>
      auth_;
  std::map<std::string, AppFactory> factories_;
  std::map<std::string, middleware::ServiceId> service_ids_;
  middleware::ServiceId next_service_id_ = 1;
};

}  // namespace dynaplat::platform
