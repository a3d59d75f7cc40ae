// One vehicle assembled from its model (paper Sec. 2.2: the DSL is the one
// description of hardware, interfaces and deployment that the verification
// engine checks; Sec. 2.4 runs that same description on virtual ECUs).
//
// The Vehicle is the only place that maps the hardware model to simulated
// hardware:
//   - one medium per NetworkDef, named after the network, at its bitrate
//     (can -> CanBus, ethernet/tsn -> EthernetSwitch, flexray -> FlexRayBus);
//   - one os::Ecu per EcuDef, in model order, carrying mips, cores, memory,
//     mmu, crypto and os, with node ids 1, 2, ... per medium; an ECU without
//     `network=` stays unconnected;
//   - the DynamicPlatform, with one node per ECU.
// A medium's name is behaviour, not a label: it seeds the medium's loss and
// corruption RNG, names its `net.<name>.*` metrics and trace lanes, and is
// the target name fault campaigns schedule and fingerprint.
// App registration, install_all and the redundancy/degradation/recovery
// managers stay with the caller, which configures each differently.
//
// The Vehicle owns everything it builds and tears it down platform first,
// then ECUs, then media. It is neither copyable nor movable: nodes, ECUs
// and media hold references into each other.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/parser.hpp"
#include "net/medium.hpp"
#include "os/ecu.hpp"
#include "platform/platform.hpp"

namespace dynaplat::platform {

struct VehicleConfig {
  PlatformConfig platform = {};
  /// Applied to every node.
  NodeConfig node = {};
  /// Observability sink for every ECU (and, through them, their media).
  sim::Trace* trace = nullptr;
};

class Vehicle {
 public:
  /// Throws std::invalid_argument when an ECU names an undeclared network.
  Vehicle(sim::Simulator& simulator, model::ParsedSystem system,
          VehicleConfig config = {});
  Vehicle(const Vehicle&) = delete;
  Vehicle(Vehicle&&) = delete;
  Vehicle& operator=(const Vehicle&) = delete;
  Vehicle& operator=(Vehicle&&) = delete;

  DynamicPlatform& platform() { return *platform_; }
  /// Throws std::out_of_range for a name the model does not declare.
  os::Ecu& ecu(const std::string& name);
  net::Medium& medium(const std::string& name);
  /// Every ECU, in model order.
  const std::vector<std::unique_ptr<os::Ecu>>& ecus() const { return ecus_; }

 private:
  // Declaration order is teardown order, reversed: nodes reference ECUs,
  // ECUs detach from their media.
  std::vector<std::unique_ptr<net::Medium>> media_;
  std::vector<std::unique_ptr<os::Ecu>> ecus_;
  std::unique_ptr<DynamicPlatform> platform_;
};

}  // namespace dynaplat::platform
