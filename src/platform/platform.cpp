#include "platform/platform.hpp"

#include <stdexcept>

#include "dse/schedulability.hpp"

namespace dynaplat::platform {

namespace {

// Seed of the platform key server's key material.
constexpr std::uint64_t kSecuritySeed = 42;

}  // namespace

DynamicPlatform::DynamicPlatform(sim::Simulator& simulator,
                                 model::SystemModel system_model,
                                 model::DeploymentDef deployment,
                                 PlatformConfig config)
    : sim_(simulator),
      model_(std::move(system_model)),
      deployment_(std::move(deployment)),
      config_(config),
      key_server_(kSecuritySeed) {
  backend_client_ =
      std::make_unique<::dynaplat::backend::BackendClient>(sim_);
  backend_client_->set_loopback(&backend_);
  verifier_.set_schedulability_hook(dse::make_verifier_hook());
  // Pre-assign service ids in model order so all nodes agree.
  for (const auto& interface : model_.interfaces()) {
    service_id(interface.name);
  }
}

PlatformNode& DynamicPlatform::add_node(os::Ecu& ecu, NodeConfig config) {
  // Install judges the host rule against this model ECU.
  if (model_.ecu(ecu.name()) == nullptr) {
    throw std::invalid_argument("ECU '" + ecu.name() +
                                "' is not in the system model");
  }
  auto node = std::make_unique<PlatformNode>(*this, ecu, config);
  PlatformNode& ref = *node;
  nodes_[ecu.name()] = std::move(node);
  if (config_.auth_mode != security::AuthMode::kNone ||
      config_.access_control) {
    auth_[ecu.name()] = std::make_unique<security::AuthenticationService>(
        ref.comm(), key_server_, config_.auth_mode,
        config_.access_control ? &access_matrix_ : nullptr);
  }
  return ref;
}

PlatformNode* DynamicPlatform::node(const std::string& ecu_name) {
  auto it = nodes_.find(ecu_name);
  return it == nodes_.end() ? nullptr : it->second.get();
}

sim::Trace* DynamicPlatform::vehicle_trace() {
  for (const auto& ecu_def : model_.ecus()) {
    PlatformNode* node = this->node(ecu_def.name);
    if (node != nullptr && node->ecu().trace() != nullptr) {
      return node->ecu().trace();
    }
  }
  return nullptr;
}

std::vector<std::string> DynamicPlatform::node_names() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& [name, node] : nodes_) names.push_back(name);
  return names;
}

PlatformNode* DynamicPlatform::node_hosting(const std::string& app_label) {
  for (auto& [name, node] : nodes_) {
    if (node->hosts(app_label)) return node.get();
  }
  return nullptr;
}

void DynamicPlatform::register_app(const std::string& app_name,
                                   AppFactory factory) {
  factories_[app_name] = std::move(factory);
}

AppFactory DynamicPlatform::factory_for(const std::string& app_name) const {
  auto it = factories_.find(app_name);
  return it == factories_.end() ? AppFactory{} : it->second;
}

std::vector<model::Violation> DynamicPlatform::verify() const {
  return verifier_.verify(model_, deployment_);
}

bool DynamicPlatform::install_all(std::string* reason) {
  if (config_.enforce_verification) {
    const auto violations = verify();
    if (model::Verifier::has_errors(violations)) {
      if (reason != nullptr) {
        for (const auto& violation : violations) {
          if (violation.severity == model::Severity::kError) {
            *reason = violation.rule + " " + violation.subject + ": " +
                      violation.message;
            break;
          }
        }
      }
      return false;
    }
  }
  if (config_.access_control) derive_access_matrix();

  for (const auto& binding : deployment_.bindings) {
    const model::AppDef* def = model_.app(binding.app);
    if (def == nullptr) {
      if (reason != nullptr) *reason = "unknown app '" + binding.app + "'";
      return false;
    }
    const int replicas = std::max(1, def->replicas);
    for (int replica = 0;
         replica < replicas &&
         replica < static_cast<int>(binding.candidates.size());
         ++replica) {
      const std::string& ecu_name =
          binding.candidates[static_cast<std::size_t>(replica)];
      PlatformNode* target = node(ecu_name);
      if (target == nullptr) {
        if (reason != nullptr) {
          *reason = "no platform node on ECU '" + ecu_name + "'";
        }
        return false;
      }
      AppFactory factory = factory_for(def->name);
      if (!factory) {
        if (reason != nullptr) {
          *reason = "no registered package for '" + def->name + "'";
        }
        return false;
      }
      std::string install_reason;
      if (!target->install(*def, factory, &install_reason)) {
        if (reason != nullptr) *reason = install_reason;
        return false;
      }
      // Replica 0 is the initial primary; the rest start as standbys
      // (active == false). RedundancyManager rotates ownership on failure.
      const bool standby = replica > 0;
      if (!target->start(def->name, standby)) {
        if (reason != nullptr) {
          *reason = "failed to start '" + def->name + "' on " + ecu_name;
        }
        return false;
      }
    }
  }
  return true;
}

middleware::ServiceId DynamicPlatform::service_id(
    const std::string& interface_name) {
  auto it = service_ids_.find(interface_name);
  if (it != service_ids_.end()) return it->second;
  const middleware::ServiceId id = next_service_id_++;
  service_ids_[interface_name] = id;
  return id;
}

net::Priority DynamicPlatform::interface_priority(
    const std::string& interface_name) const {
  // Criticality-ordered network priority (Sec. 3.1 "Hardware Access &
  // Communication"): the provider's ASIL decides. Streams ride low.
  const model::InterfaceDef* interface = model_.interface(interface_name);
  if (interface == nullptr) return net::kPriorityLowest;
  if (interface->paradigm == model::Paradigm::kStream) {
    return net::kPriorityLowest;
  }
  const model::AppDef* provider = model_.provider_of(interface_name);
  const model::Asil asil =
      provider != nullptr ? provider->asil : model::Asil::kQM;
  switch (asil) {
    case model::Asil::kD: return 0;
    case model::Asil::kC: return 1;
    case model::Asil::kB: return 2;
    case model::Asil::kA: return 3;
    case model::Asil::kQM: return 5;
  }
  return net::kPriorityLowest;
}

void DynamicPlatform::derive_access_matrix() {
  for (const auto& binding : deployment_.bindings) {
    const model::AppDef* app = model_.app(binding.app);
    if (app == nullptr) continue;
    const int replicas = std::max(1, app->replicas);
    for (int replica = 0;
         replica < replicas &&
         replica < static_cast<int>(binding.candidates.size());
         ++replica) {
      PlatformNode* host =
          node(binding.candidates[static_cast<std::size_t>(replica)]);
      if (host == nullptr) continue;
      const net::NodeId client = host->ecu().node_id();
      for (const auto& interface_name : app->consumes) {
        access_matrix_.allow(client, service_id(interface_name));
      }
      // Providers may also address their own service (replica state sync).
      for (const auto& interface_name : app->provides) {
        access_matrix_.allow(client, service_id(interface_name));
      }
    }
  }
}

::dynaplat::backend::BackendClient& DynamicPlatform::connect_backend(
    ::dynaplat::backend::FleetScheduleService& service,
    ::dynaplat::backend::ClientConfig client_config) {
  backend_client_ = std::make_unique<::dynaplat::backend::BackendClient>(
      sim_, client_config);
  backend_client_->connect(&service);
  return *backend_client_;
}

}  // namespace dynaplat::platform
