// The benchmark's workloads. Each factory derives every input from `seed`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bench.hpp"

namespace perfbench {

/// One fault-free full-stack vehicle simulated for a long stretch.
std::unique_ptr<Workload> make_vehicle_steady(std::uint64_t seed);
/// The E22 scale drill at 100 000 sessions against one batched service.
std::unique_ptr<Workload> make_fleet_100k(std::uint64_t seed);
/// Many seeds of the E13 chaos rig fanned out with sim::ScenarioSweep.
std::unique_ptr<Workload> make_campaign_sweep(std::uint64_t seed);

inline std::unique_ptr<Workload> make_workload(const std::string& name,
                                               std::uint64_t seed) {
  if (name == "vehicle_steady") return make_vehicle_steady(seed);
  if (name == "fleet_100k") return make_fleet_100k(seed);
  if (name == "campaign_sweep") return make_campaign_sweep(seed);
  return nullptr;
}

}  // namespace perfbench
