// E14 -- Sec. 2.3: self-healing deployment ("the final mapping might only
// be applied in the vehicle on the road").
//
// A fleet of apps spread across ECUs; one ECU is killed at t = 2 s. The
// ReconfigurationManager re-places the dead host's apps onto survivors,
// admission-checked. Swept over spare capacity (how loaded the survivors
// already are) and sweep period. Reported: recovered/total apps, recovery
// latency (fault -> last app running again), and where the apps landed.
//
// Expected shape: with spare capacity, recovery completes within ~2 sweep
// periods; as survivor load approaches saturation, apps strand -- the
// quantified version of "the deployment ... can depend on the current load
// of every hardware component".
#include <memory>

#include "bench/common.hpp"
#include "model/parser.hpp"
#include "platform/reconfiguration.hpp"
#include "platform/vehicle.hpp"

using namespace dynaplat;

namespace {

struct Outcome {
  int recovered = 0;
  int stranded = 0;
  double recovery_ms = -1.0;
};

Outcome run(int apps_on_victim, double survivor_base_load,
            sim::Duration sweep_period) {
  // 3 ECUs: Victim hosts the apps under test; S1/S2 carry base load.
  std::string dsl =
      "network Net kind=ethernet bitrate=100M\n"
      "ecu Victim mips=1000 cores=2 memory=256M asil=D network=Net\n"
      "ecu S1 mips=1000 memory=256M asil=D network=Net\n"
      "ecu S2 mips=1000 memory=256M asil=D network=Net\n";
  for (int i = 0; i < apps_on_victim; ++i) {
    dsl += "app Fn" + std::to_string(i) +
           " class=deterministic asil=B memory=4M\n"
           "  task t period=10ms wcet=1500K priority=1\n";  // 0.15 util
    dsl += "deploy Fn" + std::to_string(i) + " -> Victim | S1 | S2\n";
  }
  // Base load on the survivors.
  const auto base_wcet =
      static_cast<std::uint64_t>(survivor_base_load * 1000.0 * 10'000.0);
  for (const char* survivor : {"S1", "S2"}) {
    dsl += std::string("app Base") + survivor +
           " class=deterministic asil=B memory=4M\n"
           "  task t period=10ms wcet=" +
           std::to_string(base_wcet) + " priority=2\n";
    dsl += std::string("deploy Base") + survivor + " -> " + survivor + "\n";
  }

  sim::Simulator simulator;
  // The candidate lists are deliberately permissive (they are the
  // reconfiguration search space, not a guarantee that every variant is
  // simultaneously safe), so strict variant verification is off; per-node
  // admission control still gates every placement at runtime.
  platform::Vehicle vehicle(simulator, model::parse_system(dsl),
                            {.platform = {.enforce_verification = false}});
  platform::DynamicPlatform& dp = vehicle.platform();
  for (const auto& app : dp.system_model().apps()) {
    dp.register_app(app.name, [] {
      return std::make_unique<platform::Application>();
    });
  }
  if (!dp.install_all()) return {};

  platform::ReconfigConfig config;
  config.check_period = sweep_period;
  platform::ReconfigurationManager reconfig(dp, config);
  reconfig.engage();

  const sim::Time fault_at = sim::seconds(2) + 7 * sim::kMillisecond;
  simulator.schedule_at(fault_at, [&] { vehicle.ecu("Victim").fail(); });
  simulator.run_until(sim::seconds(10));

  Outcome outcome;
  sim::Time last_recovery = 0;
  for (const auto& migration : reconfig.migrations()) {
    if (migration.success) {
      ++outcome.recovered;
      last_recovery = std::max(last_recovery, migration.at);
    }
  }
  outcome.stranded = static_cast<int>(reconfig.stranded().size());
  if (outcome.recovered > 0) {
    outcome.recovery_ms = sim::to_ms(last_recovery - fault_at);
  }
  return outcome;
}

}  // namespace

int main() {
  bench::banner("E14", "self-healing reconfiguration (Sec. 2.3)");
  bench::Table table({"victim_apps", "survivor_load", "sweep_ms",
                      "recovered", "stranded", "recovery_ms"});
  for (int apps : {2, 4, 8}) {
    for (double load : {0.1, 0.5, 0.8}) {
      const Outcome outcome = run(apps, load, 50 * sim::kMillisecond);
      table.row({bench::fmt(apps), bench::fmt(load, 1), "50",
                 bench::fmt(outcome.recovered), bench::fmt(outcome.stranded),
                 outcome.recovery_ms < 0 ? "-"
                                         : bench::fmt(outcome.recovery_ms, 0)});
    }
  }
  // Sweep-period sensitivity at a comfortable load.
  for (sim::Duration sweep : {10 * sim::kMillisecond, 100 * sim::kMillisecond,
                              500 * sim::kMillisecond}) {
    const Outcome outcome = run(4, 0.1, sweep);
    table.row({"4", "0.1", bench::fmt(sim::to_ms(sweep), 0),
               bench::fmt(outcome.recovered), bench::fmt(outcome.stranded),
               outcome.recovery_ms < 0 ? "-"
                                       : bench::fmt(outcome.recovery_ms, 0)});
  }
  return 0;
}
