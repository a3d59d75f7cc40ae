// Fail-operational redundancy scenario (paper Sec. 3.3).
//
// An autonomous-driving "Pilot" function runs replicated on two of three
// ECUs. At t = 2 s the primary ECU dies on the highway; the standby detects
// the heartbeat loss, restores the last synchronized state and takes over
// publishing steering commands — the vehicle keeps operating instead of
// shutting down.
#include <cstdio>
#include <memory>

#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "platform/redundancy.hpp"
#include "platform/vehicle.hpp"

using namespace dynaplat;

namespace {

const char* kModel = R"(
network Backbone kind=tsn bitrate=1G
ecu Front mips=3000 memory=512M asil=D network=Backbone
ecu Rear mips=3000 memory=512M asil=D network=Backbone
ecu Gateway mips=1000 memory=128M asil=D network=Backbone

interface Steering paradigm=event payload=16 period=10ms max_latency=5ms

app Pilot class=deterministic asil=D memory=64M replicas=2
  task plan period=10ms wcet=2M priority=1
  provides Steering

deploy Pilot -> Front | Rear
)";

class PilotApp final : public platform::Application {
 public:
  void on_task(const std::string&) override {
    ++plan_step_;
    if (!active()) return;
    middleware::PayloadWriter writer;
    writer.u64(plan_step_);
    writer.f64(0.02 * static_cast<double>(plan_step_ % 100));  // curvature
    context_.comm->publish(context_.service_id("Steering"), 1,
                           writer.take(),
                           context_.priority_of("Steering"));
  }
  std::vector<std::uint8_t> serialize_state() override {
    middleware::PayloadWriter writer;
    writer.u64(plan_step_);
    return writer.take();
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    middleware::PayloadReader reader(state);
    plan_step_ = reader.u64();
  }

 private:
  std::uint64_t plan_step_ = 0;
};

}  // namespace

int main() {
  std::printf("== fail-operational pilot with 2 replicas ==\n\n");

  sim::Simulator simulator;
  sim::Trace trace;
  platform::Vehicle vehicle(simulator, model::parse_system(kModel),
                            {.trace = &trace});
  platform::DynamicPlatform& dp = vehicle.platform();
  dp.register_app("Pilot", [] { return std::make_unique<PilotApp>(); });
  std::string reason;
  if (!dp.install_all(&reason)) {
    std::printf("install failed: %s\n", reason.c_str());
    return 1;
  }

  platform::RedundancyConfig redundancy_config;
  redundancy_config.heartbeat_period = 10 * sim::kMillisecond;
  platform::RedundancyManager redundancy(dp, "Pilot", redundancy_config);
  redundancy.engage();

  // A steering actuator on the gateway consumes the commands and tracks
  // continuity of the command stream.
  std::uint64_t commands = 0;
  std::uint64_t last_step = 0;
  sim::Time last_rx = 0;
  sim::Duration worst_gap = 0;
  dp.node("Gateway")->comm().subscribe(
      dp.service_id("Steering"), 1,
      [&](std::vector<std::uint8_t> data, net::NodeId) {
        middleware::PayloadReader reader(data);
        last_step = reader.u64();
        ++commands;
        if (last_rx != 0) {
          worst_gap = std::max(worst_gap, simulator.now() - last_rx);
        }
        last_rx = simulator.now();
      });

  // Highway driving; primary dies at t = 2 s.
  simulator.schedule_at(sim::seconds(2), [&] {
    std::printf("t=2.000s: !! Front ECU hard fault (primary dies)\n");
    vehicle.ecu("Front").fail();
  });

  simulator.run_until(sim::seconds(2));
  std::printf("t=2.000s: primary=%s, %llu steering cmds so far, step=%llu\n",
              redundancy.current_primary().c_str(),
              static_cast<unsigned long long>(commands),
              static_cast<unsigned long long>(last_step));

  simulator.run_until(sim::seconds(5));
  std::printf("t=5.000s: primary=%s, %llu steering cmds, step=%llu\n",
              redundancy.current_primary().c_str(),
              static_cast<unsigned long long>(commands),
              static_cast<unsigned long long>(last_step));

  if (redundancy.failovers().empty()) {
    std::printf("no failover happened -- unexpected\n");
    return 1;
  }
  const auto& failover = redundancy.failovers().front();
  std::printf("\nfailover: promoted node %u at t=%.3fs, outage %.1f ms\n",
              failover.new_primary, sim::to_s(failover.promoted_at),
              sim::to_ms(failover.outage));
  std::printf("worst steering-command gap: %.1f ms (nominal 10 ms)\n",
              sim::to_ms(worst_gap));
  std::printf(
      "plan counter continued monotonically (state was heartbeat-synced): "
      "%s\n",
      last_step > 400 ? "yes" : "NO");
  std::printf("\nThe vehicle kept steering through the ECU loss -- "
              "fail-operational, not fail-stop.\n");
  return 0;
}
