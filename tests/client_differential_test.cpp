// Differential test: FleetDriver against a reference fleet of full
// per-session BackendClients.
//
// The reference replays FleetDriver::run's schedule — staggered OTA
// cadence, fault wave, driver-injected outage, recovery retries — in the
// same kernel scheduling order, but routes every request through its own
// BackendClient (jitter_stream = session index). The two fleets must then
// agree on everything observable: the latency sequence, the summed client
// counters, the OTA / recovery / fallback counts, the worst unsafe window
// and the service fingerprint. Both sides run backend::ClientEngine; what
// this pins is that their hooks (wire request, artifact cache, breaker
// reactions) are equivalent. The pinned fleet goldens in backend_test.cpp
// cover the engine itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "backend/client.hpp"
#include "backend/fleet.hpp"
#include "backend/service.hpp"
#include "sim/random.hpp"

namespace dynaplat {
namespace {

using backend::BackendClient;
using backend::BackendOutcome;
using backend::ClientConfig;
using backend::Criticality;
using backend::FleetConfig;
using backend::FleetDriver;
using backend::FleetScheduleService;
using backend::SynthesisRequest;

/// Stream namespace the driver draws its fault wave from, under
/// FleetConfig::seed.
constexpr std::uint64_t kWaveStream = 0x2000'0000ull;

/// Everything the two fleets are compared on.
struct FleetOutcome {
  std::vector<sim::Duration> latencies;
  std::uint64_t attempts = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t fast_fails = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t local_admissions = 0;
  std::uint64_t revalidated = 0;
  std::uint64_t ota_completed = 0;
  std::uint64_t ota_deferred = 0;
  std::uint64_t recoveries_completed = 0;
  std::uint64_t fallback_cache = 0;
  std::uint64_t fallback_local = 0;
  std::uint64_t fallback_none = 0;
  sim::Duration max_unsafe_duration = 0;
  std::uint64_t service_fingerprint = 0;
};

/// One BackendClient per vehicle, driven on FleetDriver's schedule.
class ReferenceFleet {
 public:
  ReferenceFleet(sim::Simulator& simulator, FleetScheduleService& service,
                 FleetConfig config)
      : sim_(simulator), service_(service), config_(std::move(config)) {}

  FleetOutcome run() {
    build_vehicles();
    const sim::Time start = sim_.now();
    const std::size_t n = config_.sessions;

    std::vector<sim::EventId> ota_timers;
    if (config_.ota_period > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        sim::Time first = static_cast<sim::Time>(i) * config_.ota_period /
                          static_cast<sim::Time>(n);
        if (config_.ota_phase_grid > 0) {
          first = first / config_.ota_phase_grid * config_.ota_phase_grid;
        }
        ota_timers.push_back(sim_.schedule_every(
            start + first, config_.ota_period, [this, i] { issue_ota(i); }));
      }
    }
    if (config_.wave_fraction > 0.0 && config_.wave_at > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        sim::Random draw = sim::Random::stream(config_.seed, kWaveStream + i);
        if (!draw.chance(config_.wave_fraction)) continue;
        const sim::Time at =
            start + config_.wave_at +
            static_cast<sim::Duration>(
                draw.uniform01() * static_cast<double>(config_.wave_stagger));
        sim_.schedule_at(at, [this, i] { hit_with_wave(i); });
      }
    }
    if (config_.outage_at > 0 && config_.outage_duration > 0) {
      const sim::Time down = start + config_.outage_at;
      const sim::Time heal = down + config_.outage_duration;
      FleetScheduleService* target = &service_;
      if (config_.outage_is_partition) {
        sim_.schedule_at(down, [target] { target->set_partitioned(true); });
        sim_.schedule_at(heal, [target] { target->set_partitioned(false); });
      } else {
        sim_.schedule_at(down, [target] { target->crash(); });
        sim_.schedule_at(heal, [target] { target->restart(); });
      }
    }

    sim_.run_until(start + config_.horizon);
    for (const sim::EventId timer : ota_timers) sim_.cancel(timer);
    if (config_.drain_grace > 0) {
      sim_.run_until(start + config_.horizon + config_.drain_grace);
    }

    for (const Vehicle& v : vehicles_) {
      out_.attempts += v.client->attempts();
      out_.timeouts += v.client->timeouts();
      out_.breaker_opens += v.client->breaker_opens();
      out_.fast_fails += v.client->breaker_fast_fails();
      out_.stale_served += v.client->stale_served();
      out_.local_admissions += v.client->local_admissions();
      out_.revalidated += v.client->revalidated();
    }
    out_.service_fingerprint = service_.fingerprint();
    return out_;
  }

 private:
  enum class State { kNominal, kUnsafe, kSafeDegraded };
  struct Vehicle {
    std::unique_ptr<BackendClient> client;
    SynthesisRequest request;
    State state = State::kNominal;
    bool recovery_inflight = false;
    sim::Time unsafe_since = 0;
    sim::Time recovery_issued = 0;
  };

  void build_vehicles() {
    // One task set per class, shared by every vehicle of the class.
    std::vector<std::shared_ptr<const backend::TaskSet>> classes;
    for (std::size_t c = 0; c < config_.topology_classes; ++c) {
      classes.push_back(std::make_shared<const backend::TaskSet>(
          FleetDriver::make_tasks(config_.seed, c),
          c % 2 == 0 ? 1'000 : 2'000));
    }
    vehicles_.resize(config_.sessions);
    for (std::size_t i = 0; i < config_.sessions; ++i) {
      Vehicle& v = vehicles_[i];
      v.request.task_set = classes[i % config_.topology_classes];
      v.request.session = static_cast<std::uint32_t>(i);
      ClientConfig client = config_.client;
      client.jitter_stream = i;
      v.client = std::make_unique<BackendClient>(sim_, client);
      v.client->connect(&service_);
    }
  }

  void submit(std::size_t s, Criticality criticality) {
    SynthesisRequest request = vehicles_[s].request;
    request.criticality = criticality;
    const sim::Time issued = sim_.now();
    vehicles_[s].client->request(
        std::move(request),
        [this, s, issued, criticality](const BackendOutcome& outcome) {
          if (criticality == Criticality::kOta) {
            finish_ota(issued, outcome);
          } else {
            vehicles_[s].recovery_inflight = false;
            on_recovery_outcome(s, outcome);
          }
        });
  }

  void finish_ota(sim::Time issued, const BackendOutcome& outcome) {
    if (outcome.source == BackendOutcome::Source::kBackend && outcome.ok) {
      ++out_.ota_completed;
      out_.latencies.push_back(sim_.now() - issued);
    } else {
      ++out_.ota_deferred;
    }
  }

  void issue_ota(std::size_t s) {
    if (vehicles_[s].state != State::kNominal) return;
    submit(s, Criticality::kOta);
  }

  void hit_with_wave(std::size_t s) {
    Vehicle& v = vehicles_[s];
    if (v.state != State::kNominal) return;
    v.state = State::kUnsafe;
    v.unsafe_since = sim_.now();
    issue_recovery(s);
  }

  void issue_recovery(std::size_t s) {
    Vehicle& v = vehicles_[s];
    if (v.recovery_inflight || v.state == State::kNominal) return;
    v.recovery_inflight = true;
    v.recovery_issued = sim_.now();
    submit(s, Criticality::kRecovery);
  }

  void on_recovery_outcome(std::size_t s, const BackendOutcome& outcome) {
    Vehicle& v = vehicles_[s];
    if (v.state == State::kNominal) return;
    if (outcome.source == BackendOutcome::Source::kBackend && outcome.ok) {
      out_.latencies.push_back(sim_.now() - v.recovery_issued);
      mark_safe(v, /*recovered=*/true);
      return;
    }
    if (outcome.ok) {
      if (outcome.source == BackendOutcome::Source::kCache) {
        ++out_.fallback_cache;
      }
      if (outcome.source == BackendOutcome::Source::kLocalFallback) {
        ++out_.fallback_local;
      }
      mark_safe(v, /*recovered=*/false);
    } else {
      ++out_.fallback_none;
    }
    sim_.schedule_in(config_.recovery_retry, [this, s] { issue_recovery(s); });
  }

  void mark_safe(Vehicle& v, bool recovered) {
    if (v.state == State::kUnsafe) {
      out_.max_unsafe_duration =
          std::max(out_.max_unsafe_duration, sim_.now() - v.unsafe_since);
    }
    if (recovered) ++out_.recoveries_completed;
    v.state = recovered ? State::kNominal : State::kSafeDegraded;
  }

  sim::Simulator& sim_;
  FleetScheduleService& service_;
  FleetConfig config_;
  std::vector<Vehicle> vehicles_;
  FleetOutcome out_;
};

FleetOutcome run_driver(const FleetConfig& config) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  FleetDriver driver(simulator, service, config);
  driver.run();
  FleetOutcome out;
  out.latencies = driver.latencies();
  out.attempts = driver.attempts();
  out.timeouts = driver.client_timeouts();
  out.breaker_opens = driver.client_breaker_opens();
  out.fast_fails = driver.breaker_fast_fails();
  out.stale_served = driver.stale_served();
  out.local_admissions = driver.local_admissions();
  out.revalidated = driver.revalidated();
  out.ota_completed = driver.ota_completed();
  out.ota_deferred = driver.ota_deferred();
  out.recoveries_completed = driver.recoveries_completed();
  out.fallback_cache = driver.fallback_cache();
  out.fallback_local = driver.fallback_local();
  out.fallback_none = driver.fallback_none();
  out.max_unsafe_duration = driver.max_unsafe_duration();
  out.service_fingerprint = service.fingerprint();
  return out;
}

FleetOutcome run_reference(const FleetConfig& config) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  ReferenceFleet fleet(simulator, service, config);
  return fleet.run();
}

/// Runs both fleets on `config` and compares every observable; returns the
/// driver's side for case-specific sanity checks.
FleetOutcome expect_engines_agree(const FleetConfig& config) {
  const FleetOutcome driver = run_driver(config);
  const FleetOutcome reference = run_reference(config);
  EXPECT_EQ(driver.latencies.size(), reference.latencies.size());
  EXPECT_TRUE(driver.latencies == reference.latencies)
      << "latency sequences diverge";
  EXPECT_EQ(driver.attempts, reference.attempts);
  EXPECT_EQ(driver.timeouts, reference.timeouts);
  EXPECT_EQ(driver.breaker_opens, reference.breaker_opens);
  EXPECT_EQ(driver.fast_fails, reference.fast_fails);
  EXPECT_EQ(driver.stale_served, reference.stale_served);
  EXPECT_EQ(driver.local_admissions, reference.local_admissions);
  EXPECT_EQ(driver.revalidated, reference.revalidated);
  EXPECT_EQ(driver.ota_completed, reference.ota_completed);
  EXPECT_EQ(driver.ota_deferred, reference.ota_deferred);
  EXPECT_EQ(driver.recoveries_completed, reference.recoveries_completed);
  EXPECT_EQ(driver.fallback_cache, reference.fallback_cache);
  EXPECT_EQ(driver.fallback_local, reference.fallback_local);
  EXPECT_EQ(driver.fallback_none, reference.fallback_none);
  EXPECT_EQ(driver.max_unsafe_duration, reference.max_unsafe_duration);
  EXPECT_EQ(driver.service_fingerprint, reference.service_fingerprint);
  return driver;
}

/// 1k sessions on one region, a fault wave inside a 2 s outage.
FleetConfig differential_fleet(std::uint64_t seed, bool partition) {
  FleetConfig config;
  config.sessions = 1'000;
  config.topology_classes = 8;
  config.seed = seed;
  config.horizon = 4 * sim::kSecond;
  config.ota_period = 1 * sim::kSecond;
  config.wave_at = 1 * sim::kSecond;
  config.wave_fraction = 0.5;
  config.wave_stagger = 300 * sim::kMillisecond;
  config.recovery_retry = 200 * sim::kMillisecond;
  config.outage_at = 900 * sim::kMillisecond;
  config.outage_duration = 2 * sim::kSecond;
  config.outage_is_partition = partition;
  config.client.request_timeout = 50 * sim::kMillisecond;
  config.client.backoff_base = 25 * sim::kMillisecond;
  config.client.breaker_open_for = 250 * sim::kMillisecond;
  return config;
}

TEST(ClientDifferential, ZeroJitterMatchesPerSessionClients) {
  for (const bool partition : {false, true}) {
    SCOPED_TRACE(partition ? "partition" : "crash");
    FleetConfig config = differential_fleet(11, partition);
    config.client.jitter = 0.0;
    const FleetOutcome out = expect_engines_agree(config);
    EXPECT_GT(out.breaker_opens, 0u);
    EXPECT_GT(out.recoveries_completed, 0u);
    EXPECT_GT(out.fallback_cache + out.fallback_local, 0u);
  }
}

TEST(ClientDifferential, DefaultJitterMatchesPerSessionClients) {
  for (const bool partition : {false, true}) {
    SCOPED_TRACE(partition ? "partition" : "crash");
    const FleetConfig config = differential_fleet(12, partition);
    ASSERT_GT(config.client.jitter, 0.0);
    const FleetOutcome out = expect_engines_agree(config);
    EXPECT_GT(out.breaker_opens, 0u);
    EXPECT_GT(out.timeouts, 0u);
  }
}

TEST(ClientDifferential, HighBreakerThresholdStillOpens) {
  // A threshold beyond the breaker's failure counter is clamped to the
  // counter's maximum, so a long outage still opens every engine's breaker.
  FleetConfig config = differential_fleet(13, /*partition=*/false);
  config.sessions = 200;
  config.horizon = 24 * sim::kSecond;
  config.outage_duration = 20 * sim::kSecond;
  config.client.breaker_threshold = 64;
  const FleetOutcome out = expect_engines_agree(config);
  EXPECT_GT(out.breaker_opens, 0u);
}

}  // namespace
}  // namespace dynaplat
