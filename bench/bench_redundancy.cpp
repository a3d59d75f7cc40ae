// E8 -- Sec. 3.3: fail-operational redundancy.
//
// A replicated deterministic publisher is supervised by the redundancy
// manager. ECU faults are injected repeatedly; swept over heartbeat period
// and replica count. Reported: failover outage (heartbeat-loss -> promoted),
// service availability (fraction of expected publications that arrived),
// and heartbeat bandwidth cost.
//
// Expected shape: outage ~= 3 missed heartbeat periods (+ rank stagger);
// availability -> 1 as heartbeats get faster, at linearly growing heartbeat
// traffic. With a single replica (no redundancy) the fault is fatal.
#include <memory>

#include "bench/common.hpp"
#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "platform/redundancy.hpp"
#include "platform/vehicle.hpp"

using namespace dynaplat;

namespace {

class BeaconApp final : public platform::Application {
 public:
  void on_task(const std::string&) override {
    // State progresses only on the active instance; a standby's knowledge
    // comes exclusively from shipped state (that staleness is what E8b
    // measures).
    if (!active()) return;
    ++n_;
    middleware::PayloadWriter writer;
    writer.u64(n_);
    context_.comm->publish(context_.service_id("Beacon"), 1, writer.take(),
                           1);
  }
  std::vector<std::uint8_t> serialize_state() override {
    middleware::PayloadWriter writer;
    writer.u64(n_);
    return writer.take();
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    middleware::PayloadReader reader(state);
    n_ = reader.u64();
  }

 private:
  std::uint64_t n_ = 0;
};

struct Outcome {
  double availability = 0.0;
  double outage_ms = -1.0;
  std::uint64_t heartbeats = 0;
  bool recovered = false;
  /// Counter regression observed by the consumer at failover: how far the
  /// promoted standby's state lagged the dead primary's (staleness).
  std::int64_t state_regression = 0;
};

Outcome run(int replicas, sim::Duration heartbeat_period,
            int state_every_n = 1) {
  std::string dsl =
      "network Net kind=ethernet bitrate=100M\n"
      "ecu A mips=1000 memory=64M asil=D network=Net\n"
      "ecu B mips=1000 memory=64M asil=D network=Net\n"
      "ecu C mips=1000 memory=64M asil=D network=Net\n"
      "ecu Obs mips=1000 memory=64M asil=D network=Net\n"
      "interface Beacon paradigm=event payload=8 period=10ms\n"
      "app Pilot class=deterministic asil=D memory=4M replicas=" +
      std::to_string(replicas) +
      "\n"
      "  task tick period=10ms wcet=100K priority=1\n"
      "  provides Beacon\n"
      "deploy Pilot -> A | B | C\n";
  sim::Simulator simulator;
  platform::Vehicle vehicle(simulator, model::parse_system(dsl));
  platform::DynamicPlatform& dp = vehicle.platform();
  dp.register_app("Pilot", [] { return std::make_unique<BeaconApp>(); });
  if (!dp.install_all()) return {};

  platform::RedundancyConfig config;
  config.heartbeat_period = heartbeat_period;
  config.state_every_n_heartbeats = state_every_n;
  platform::RedundancyManager redundancy(dp, "Pilot", config);
  redundancy.engage();

  std::uint64_t received = 0;
  std::uint64_t last_counter = 0;
  std::int64_t worst_regression = 0;
  dp.node("Obs")->comm().subscribe(
      dp.service_id("Beacon"), 1,
      [&](std::vector<std::uint8_t> data, net::NodeId) {
        ++received;
        try {
          middleware::PayloadReader reader(data);
          const std::uint64_t counter = reader.u64();
          if (counter < last_counter) {
            worst_regression =
                std::max(worst_regression,
                         static_cast<std::int64_t>(last_counter - counter));
          }
          last_counter = counter;
        } catch (const std::out_of_range&) {
        }
      });

  // Fault at t = 2 s; observe until t = 10 s.
  simulator.schedule_at(sim::seconds(2), [&] { vehicle.ecu("A").fail(); });
  simulator.run_until(sim::seconds(10));

  Outcome outcome;
  // Expected ~1000 publications over 10 s minus discovery slack.
  outcome.availability = static_cast<double>(received) / 990.0;
  if (outcome.availability > 1.0) outcome.availability = 1.0;
  outcome.heartbeats = redundancy.heartbeats_sent();
  if (!redundancy.failovers().empty()) {
    outcome.outage_ms = sim::to_ms(redundancy.failovers().front().outage);
    outcome.recovered = true;
  }
  outcome.state_regression = worst_regression;
  return outcome;
}

}  // namespace

int main() {
  bench::banner("E8", "fail-operational redundancy (Sec. 3.3)");
  bench::Table table({"replicas", "heartbeat_ms", "recovered", "outage_ms",
                      "availability", "heartbeats"});
  for (int replicas : {1, 2, 3}) {
    for (sim::Duration hb : {2 * sim::kMillisecond, 10 * sim::kMillisecond,
                             50 * sim::kMillisecond}) {
      const Outcome outcome = run(replicas, hb);
      table.row({bench::fmt(replicas), bench::fmt(sim::to_ms(hb), 0),
                 outcome.recovered ? "yes" : "NO",
                 outcome.outage_ms < 0 ? "-" : bench::fmt(outcome.outage_ms, 1),
                 bench::fmt(outcome.availability, 3),
                 bench::fmt(outcome.heartbeats)});
    }
  }

  // Ablation: hot standby (state on every heartbeat) vs warm standby
  // (every n-th). Staleness shows up as the counter regression consumers
  // observe across the failover.
  std::printf("\n");
  bench::banner("E8b", "hot vs warm standby (state shipping cadence)");
  bench::Table ablation({"state_every_n_heartbeats", "state_regression",
                         "outage_ms"});
  for (int every_n : {1, 5, 20}) {
    const Outcome outcome = run(2, 10 * sim::kMillisecond, every_n);
    ablation.row({bench::fmt(every_n),
                  bench::fmt(outcome.state_regression),
                  bench::fmt(outcome.outage_ms, 1)});
  }
  return 0;
}
