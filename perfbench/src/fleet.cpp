// fleet_100k: the E22 scale drill (staggered OTA cadence on a 10 ms phase
// grid, a 50% fault wave at 2 s on top of a full backend crash over
// 1.5..2.5 s) at 100 000 sessions against one batched FleetScheduleService,
// on one thread. The backend service, the client engine, the timer wheel
// and the kernel heap do the work; middleware, net and os do nothing.
#include "backend/fleet.hpp"
#include "fault/invariants.hpp"
#include "seed.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dynaplat;

constexpr std::size_t kSessions = 100'000;
constexpr sim::Duration kUnsafeBound = 2 * sim::kSecond;
constexpr sim::Duration kRecoveryBound = 4 * sim::kSecond;

backend::FleetConfig scale_config(std::uint64_t seed) {
  backend::FleetConfig config;
  config.sessions = kSessions;
  config.topology_classes = 32;
  config.seed = seed;
  config.horizon = 6 * sim::kSecond;
  config.ota_period = 2 * sim::kSecond;
  config.ota_phase_grid = 10 * sim::kMillisecond;
  config.wave_at = 2 * sim::kSecond;
  config.wave_fraction = 0.5;
  config.wave_stagger = 500 * sim::kMillisecond;
  config.recovery_retry = 250 * sim::kMillisecond;
  config.outage_at = 1'500 * sim::kMillisecond;
  config.outage_duration = 1 * sim::kSecond;
  config.record_latencies = false;
  return config;
}

backend::ServiceConfig scale_service_config() {
  backend::ServiceConfig config;
  config.batching = true;
  config.workers = kSessions / 2'000;
  config.min_service_time = 500 * sim::kMicrosecond;
  config.queue_capacity = 256;
  config.backpressure_watermark = 192;
  config.recovery_reserve = 32;
  return config;
}

class Fleet100k final : public Workload {
 public:
  explicit Fleet100k(std::uint64_t seed) : fleet_seed_(derive(seed, 1)) {}

  const char* item_name() const override { return "sessions"; }

  UnitResult run_unit() override {
    UnitResult unit;
    const Clock::time_point start = Clock::now();
    sim::Simulator simulator;
    backend::FleetScheduleService service(simulator, scale_service_config());
    backend::FleetDriver driver(simulator, service, scale_config(fleet_seed_));
    // The first simulated event ends set-up: FleetDriver::run() builds the
    // fleet and arms every cadence before its kernel loop starts.
    Clock::time_point run_called;
    Clock::time_point first_event;
    simulator.schedule_at(0, [&] {
      first_event = Clock::now();
      spans::record(spans::kFleetSetup, run_called, first_event);
    });
    {
      spans::Scope span(spans::kSimRun);
      run_called = Clock::now();
      driver.run();
    }
    const Clock::time_point finish = Clock::now();

    spans::Scope check(spans::kCheck);
    fault::InvariantChecker checker;
    checker.require_backend_drained(service);
    checker.require_no_stranded_vehicles(driver, kUnsafeBound);
    checker.require_fleet_recovery_bounded(driver, kRecoveryBound);
    const fault::InvariantReport report = checker.run();
    if (!report.passed) {
      unit.errors.push_back("fleet invariants failed:\n" + report.summary());
    }

    unit.setup_s = seconds_between(start, first_event);
    unit.run_s = seconds_between(first_event, finish);
    unit.sim_s = sim::to_s(simulator.now());
    unit.items = static_cast<double>(kSessions);

    // Failure accounting: every finished request (OTA or recovery); a
    // recovery that ended with no backend artifact and no fallback failed.
    unit.ops = driver.ota_completed() + driver.ota_deferred() +
               driver.recoveries_completed() + driver.fallback_cache() +
               driver.fallback_local() + driver.fallback_none();
    unit.ops_failed = driver.fallback_none();

    const double requests = static_cast<double>(service.requests_total());
    unit.host_layer.push_back(
        {"backend.ns_per_request",
         requests == 0.0 ? 0.0 : unit.run_s * 1e9 / requests, "ns"});

    unit.fingerprints.push_back({"fleet", driver.fingerprint()});
    unit.sim_metrics = {
        {"recovery_p50_ms", driver.latency_quantile_ms(0.50), "sim_ms"},
        {"recovery_p95_ms", driver.latency_quantile_ms(0.95), "sim_ms"},
        {"recovery_samples", static_cast<double>(driver.latency_count()),
         "count"},
        {"max_unsafe_ms", sim::to_ms(driver.max_unsafe_duration()), "sim_ms"},
        {"peak_unsafe", static_cast<double>(driver.peak_unsafe()), "count"},
        {"recoveries_completed",
         static_cast<double>(driver.recoveries_completed()), "count"},
    };

    const std::uint64_t lookups = service.cache_hits() + service.cache_misses();
    const double attempts = static_cast<double>(driver.attempts());
    unit.counters = {
        {"sim.events", static_cast<double>(simulator.events_executed()),
         "count"},
        {"backend.requests", requests, "count"},
        {"backend.dequeues", static_cast<double>(service.dequeues()), "count"},
        {"backend.coalesced", static_cast<double>(service.coalesced()),
         "count"},
        {"backend.synthesis_runs",
         static_cast<double>(service.synthesis_runs()), "count"},
        {"backend.shed", static_cast<double>(service.shed_total()), "count"},
        {"backend.backpressured", static_cast<double>(service.backpressured()),
         "count"},
        {"backend.max_queue_depth",
         static_cast<double>(service.max_queue_depth()), "count"},
        {"backend.cache_hit_ratio",
         lookups == 0 ? 0.0
                      : static_cast<double>(service.cache_hits()) /
                            static_cast<double>(lookups),
         "ratio"},
        {"client.attempts", attempts, "count"},
        {"client.timeouts", static_cast<double>(driver.client_timeouts()),
         "count"},
        {"client.breaker_opens",
         static_cast<double>(driver.client_breaker_opens()), "count"},
        {"client.fast_fails", static_cast<double>(driver.breaker_fast_fails()),
         "count"},
        {"client.failovers", static_cast<double>(driver.failovers()), "count"},
        {"client.stale_served", static_cast<double>(driver.stale_served()),
         "count"},
        {"client.local_admissions",
         static_cast<double>(driver.local_admissions()), "count"},
        {"client.fallback_none", static_cast<double>(driver.fallback_none()),
         "count"},
        {"client.useful_ratio",
         attempts == 0.0
             ? 0.0
             : static_cast<double>(driver.ota_completed() +
                                   driver.recoveries_completed()) /
                   attempts,
         "ratio"},
    };
    return unit;
  }

  std::vector<Metric> report_metrics(
      const std::vector<UnitResult>& units) const override {
    std::vector<double> ns;
    for (const UnitResult& unit : units) ns.push_back(unit.host_layer[0].value);
    return {{"backend.ns_per_request", median(ns), "ns"}};
  }

 private:
  std::uint64_t fleet_seed_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_100k(std::uint64_t seed) {
  return std::make_unique<Fleet100k>(seed);
}

}  // namespace perfbench
