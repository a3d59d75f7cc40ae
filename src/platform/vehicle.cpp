#include "platform/vehicle.hpp"

#include <stdexcept>

#include "net/can_bus.hpp"
#include "net/ethernet.hpp"
#include "net/flexray.hpp"

namespace dynaplat::platform {

namespace {

std::unique_ptr<net::Medium> make_medium(sim::Simulator& simulator,
                                         const model::NetworkDef& network) {
  switch (network.kind) {
    case model::NetworkKind::kCan:
      return std::make_unique<net::CanBus>(
          simulator, network.name,
          net::CanBusConfig{.bitrate_bps = network.bitrate_bps});
    case model::NetworkKind::kFlexRay:
      return std::make_unique<net::FlexRayBus>(
          simulator, network.name,
          net::FlexRayConfig{.bitrate_bps = network.bitrate_bps});
    case model::NetworkKind::kEthernet:
    case model::NetworkKind::kTsn:
      break;
  }
  return std::make_unique<net::EthernetSwitch>(
      simulator, network.name,
      net::EthernetConfig{.link_bps = network.bitrate_bps});
}

os::EcuConfig ecu_config(const model::EcuDef& def) {
  os::EcuConfig config;
  config.name = def.name;
  config.cpu.mips = def.mips;
  config.cpu.crypto_accelerator = def.crypto_accelerator;
  config.cores = def.cores;
  config.memory_bytes = def.memory_bytes;
  config.has_mmu = def.has_mmu;
  config.os = def.rtos ? os::OsKind::kRtos : os::OsKind::kGeneralPurpose;
  return config;
}

}  // namespace

Vehicle::Vehicle(sim::Simulator& simulator, model::ParsedSystem system,
                 VehicleConfig config) {
  for (const model::NetworkDef& network : system.model.networks()) {
    media_.push_back(make_medium(simulator, network));
  }
  std::vector<net::NodeId> next_node(media_.size(), 1);
  for (const model::EcuDef& def : system.model.ecus()) {
    net::Medium* medium = nullptr;
    net::NodeId node = 0;
    if (!def.network.empty()) {
      std::size_t index = 0;
      while (index < media_.size() && media_[index]->name() != def.network) {
        ++index;
      }
      if (index == media_.size()) {
        throw std::invalid_argument("ecu '" + def.name +
                                    "' names undeclared network '" +
                                    def.network + "'");
      }
      medium = media_[index].get();
      node = next_node[index]++;
    }
    ecus_.push_back(std::make_unique<os::Ecu>(simulator, ecu_config(def),
                                              medium, node, config.trace));
  }
  platform_ = std::make_unique<DynamicPlatform>(
      simulator, std::move(system.model), std::move(system.deployment),
      config.platform);
  for (auto& ecu : ecus_) platform_->add_node(*ecu, config.node);
}

os::Ecu& Vehicle::ecu(const std::string& name) {
  for (auto& ecu : ecus_) {
    if (ecu->name() == name) return *ecu;
  }
  throw std::out_of_range("no ecu '" + name + "'");
}

net::Medium& Vehicle::medium(const std::string& name) {
  for (auto& medium : media_) {
    if (medium->name() == name) return *medium;
  }
  throw std::out_of_range("no network '" + name + "'");
}

}  // namespace dynaplat::platform
