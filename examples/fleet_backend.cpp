// Fleet backend outage drill (paper Sec. 2.3: the schedule synthesis
// backend as shared infrastructure, and what vehicles do when it is gone).
//
// Part 1 walks one vehicle's BackendClient through the full circuit
// breaker arc against a backend that crashes mid-conversation: warm
// synthesis, crash, timeouts + capped jittered retries, breaker opens,
// stale-cache fallback keeps the vehicle safe-degraded, restart,
// half-open probe revalidates the stale artifact, breaker closes.
//
// Part 2 runs a 200-vehicle fleet against one FleetScheduleService,
// injects a fault wave (half the fleet loses an ECU inside 500 ms) on top
// of a full 3-second backend crash, and then machine-checks the headline:
// no vehicle stayed stranded unsafe, and every recovery completed within
// a bound of the backend healing.
//
// Part 3 shards the same fleet across TWO backend regions (home region =
// session id mod 2) and crashes region 0 over the wave. Vehicles homed on
// the dead region time out, their breakers open, and instead of falling
// back to degraded local mode they fail over to the sibling region and
// get FRESH synthesis from its cold cache: zero vehicles stranded, zero
// exhausted fallback ladders.
//
// Usage: fleet_backend
#include <cstdio>
#include <memory>

#include "backend/client.hpp"
#include "backend/fleet.hpp"
#include "backend/service.hpp"
#include "fault/invariants.hpp"

using namespace dynaplat;

namespace {

double ms(sim::Time t) { return static_cast<double>(t) / 1e6; }

std::vector<dse::AnalysisTask> demo_tasks() {
  std::vector<dse::AnalysisTask> tasks;
  dse::AnalysisTask brake;
  brake.name = "brake.ctl";
  brake.period = 10 * sim::kMillisecond;
  brake.deadline = brake.period;
  brake.wcet = 1 * sim::kMillisecond;
  brake.priority = 1;
  brake.deterministic = true;
  tasks.push_back(brake);
  dse::AnalysisTask maps;
  maps.name = "maps.tiles";
  maps.period = 40 * sim::kMillisecond;
  maps.deadline = maps.period;
  maps.wcet = 2 * sim::kMillisecond;
  maps.priority = 5;
  tasks.push_back(maps);
  return tasks;
}

void breaker_walkthrough() {
  std::printf("== one vehicle, one breaker ==\n");
  sim::Simulator simulator;
  backend::FleetScheduleService service(simulator);
  backend::ClientConfig config;
  config.request_timeout = 50 * sim::kMillisecond;
  config.backoff_base = 25 * sim::kMillisecond;
  config.breaker_open_for = 300 * sim::kMillisecond;
  backend::BackendClient client(simulator, config);
  client.connect(&service);
  client.add_listener([&simulator](backend::BreakerState from,
                                   backend::BreakerState to) {
    std::printf("  [%8.1f ms] breaker %s -> %s\n", ms(simulator.now()),
                backend::to_string(from), backend::to_string(to));
  });

  const auto request = [&client](backend::Criticality criticality) {
    backend::SynthesisRequest req;
    req.task_set =
        std::make_shared<const backend::TaskSet>(demo_tasks(), 1'000);
    req.criticality = criticality;
    return req;
  };
  const auto report = [&simulator](const char* what) {
    return [&simulator, what](const backend::BackendOutcome& outcome) {
      std::printf("  [%8.1f ms] %s: source=%s ok=%d stale=%d\n",
                  ms(simulator.now()), what,
                  backend::to_string(outcome.source), outcome.ok,
                  outcome.stale);
    };
  };

  // Warm the artifact cache while the backend is healthy.
  client.request(request(backend::Criticality::kOta), report("warm synth"));
  // Crash the backend, then ask for recovery synthesis: every attempt
  // times out, the breaker opens, and the stale artifact keeps us safe.
  simulator.schedule_at(100 * sim::kMillisecond, [&] { service.crash(); });
  simulator.schedule_at(120 * sim::kMillisecond, [&] {
    client.request(request(backend::Criticality::kRecovery),
                   report("recovery during outage"));
  });
  // Heal. The next request probes half-open, revalidates the stale cache
  // entry, and closes the breaker.
  simulator.schedule_at(900 * sim::kMillisecond, [&] { service.restart(); });
  simulator.schedule_at(1'300 * sim::kMillisecond, [&] {
    client.request(request(backend::Criticality::kRecovery),
                   report("recovery after heal"));
  });
  simulator.run_until(2 * sim::kSecond);
  std::printf("  attempts=%llu timeouts=%llu stale_served=%llu "
              "revalidated=%llu\n\n",
              static_cast<unsigned long long>(client.attempts()),
              static_cast<unsigned long long>(client.timeouts()),
              static_cast<unsigned long long>(client.stale_served()),
              static_cast<unsigned long long>(client.revalidated()));
}

int fleet_drill() {
  std::printf("== 200-vehicle fleet, fault wave on top of a dead backend "
              "==\n");
  sim::Simulator simulator;
  backend::FleetScheduleService service(simulator);
  backend::FleetConfig config;
  config.sessions = 200;
  config.topology_classes = 16;
  config.seed = 7;
  config.horizon = 12 * sim::kSecond;
  config.wave_at = 5 * sim::kSecond;
  config.wave_fraction = 0.5;
  config.outage_at = 4'500 * sim::kMillisecond;
  config.outage_duration = 3 * sim::kSecond;
  backend::FleetDriver driver(simulator, service, config);
  driver.run();

  std::printf("  wave hit %zu vehicles at peak; longest unsafe window "
              "%.1f ms\n",
              driver.peak_unsafe(), ms(driver.max_unsafe_duration()));
  std::printf("  fallbacks: stale cache=%llu local admission=%llu "
              "none=%llu\n",
              static_cast<unsigned long long>(driver.fallback_cache()),
              static_cast<unsigned long long>(driver.fallback_local()),
              static_cast<unsigned long long>(driver.fallback_none()));
  std::printf("  backend: %llu synthesis runs served %llu requests "
              "(cache hits %llu), shed %llu, breaker opened %llu times\n",
              static_cast<unsigned long long>(service.synthesis_runs()),
              static_cast<unsigned long long>(service.requests_total()),
              static_cast<unsigned long long>(service.cache_hits()),
              static_cast<unsigned long long>(service.shed_total()),
              static_cast<unsigned long long>(driver.client_breaker_opens()));
  std::printf("  recoveries completed=%llu, last at %.1f ms (heal at "
              "%.1f ms)\n",
              static_cast<unsigned long long>(driver.recoveries_completed()),
              ms(driver.last_recovery_completed()), ms(driver.heal_time()));

  fault::InvariantChecker checker;
  checker.require_backend_drained(service);
  checker.require_no_stranded_vehicles(driver, 2 * sim::kSecond);
  checker.require_fleet_recovery_bounded(driver, 4 * sim::kSecond);
  const fault::InvariantReport report = checker.run();
  std::printf("\n%s\n", report.summary().c_str());
  return report.passed ? 0 : 1;
}

int region_failover_drill() {
  std::printf("\n== 200-vehicle fleet, two regions, region 0 dies over the "
              "wave ==\n");
  sim::Simulator simulator;
  backend::FleetScheduleService region0(simulator);
  backend::FleetScheduleService region1(simulator);
  region0.set_name("region0");
  region1.set_name("region1");
  backend::FleetConfig config;
  config.sessions = 200;
  config.topology_classes = 16;
  config.seed = 7;
  config.horizon = 12 * sim::kSecond;
  config.wave_at = 5 * sim::kSecond;
  config.wave_fraction = 0.5;
  // Same outage as part 2 -- but now it only takes out region 0, the home
  // region of the even-numbered sessions.
  config.outage_at = 4'500 * sim::kMillisecond;
  config.outage_duration = 3 * sim::kSecond;
  backend::FleetDriver driver(simulator, {&region0, &region1}, config);
  driver.run();

  std::printf("  regions=%zu, failovers=%llu (home breaker opens, traffic "
              "shifts to the sibling)\n",
              driver.regions(),
              static_cast<unsigned long long>(driver.failovers()));
  std::printf("  region0: %llu requests, %llu synthesis runs, crashed %llu "
              "times\n",
              static_cast<unsigned long long>(region0.requests_total()),
              static_cast<unsigned long long>(region0.synthesis_runs()),
              static_cast<unsigned long long>(region0.crashes()));
  std::printf("  region1: %llu requests, %llu synthesis runs (cold-cache "
              "synthesis for the refugees)\n",
              static_cast<unsigned long long>(region1.requests_total()),
              static_cast<unsigned long long>(region1.synthesis_runs()));
  std::printf("  fallbacks: stale cache=%llu local=%llu none=%llu -- with a "
              "sibling region the ladder is barely touched\n",
              static_cast<unsigned long long>(driver.fallback_cache()),
              static_cast<unsigned long long>(driver.fallback_local()),
              static_cast<unsigned long long>(driver.fallback_none()));
  std::printf("  longest unsafe window %.1f ms, recoveries completed=%llu\n",
              ms(driver.max_unsafe_duration()),
              static_cast<unsigned long long>(driver.recoveries_completed()));

  fault::InvariantChecker checker;
  checker.require_no_stranded_vehicles(driver, 2 * sim::kSecond);
  checker.require_fleet_recovery_bounded(driver, 4 * sim::kSecond);
  const fault::InvariantReport report = checker.run();
  std::printf("\n%s\n", report.summary().c_str());
  const bool failed_over = driver.failovers() > 0;
  if (!failed_over) {
    std::printf("FAIL: expected breaker-driven failover to region 1\n");
  }
  return (report.passed && failed_over) ? 0 : 1;
}

}  // namespace

int main() {
  breaker_walkthrough();
  const int drill = fleet_drill();
  const int failover = region_failover_drill();
  return drill != 0 ? drill : failover;
}
