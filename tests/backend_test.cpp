// Fleet backend robustness (ISSUE 9): FleetScheduleService admission /
// shedding / backpressure / cross-vehicle cache / failure modes, the
// vehicle-side BackendClient circuit breaker + fallback ladder, the
// jittered reliable-transport retransmit backoff, the bounded diagnostics
// uplink queue, and fleet-scale outage survival under ScenarioSweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "backend/client.hpp"
#include "backend/fleet.hpp"
#include "backend/service.hpp"
#include "fault/campaign.hpp"
#include "fault/invariants.hpp"
#include "middleware/transport.hpp"
#include "model/parser.hpp"
#include "platform/diagnostics.hpp"
#include "platform/recovery.hpp"
#include "platform/vehicle.hpp"
#include "sim/random.hpp"
#include "sim/sweep.hpp"

namespace dynaplat {
namespace {

using backend::BackendClient;
using backend::BackendOutcome;
using backend::BreakerState;
using backend::ClientConfig;
using backend::Criticality;
using backend::FleetConfig;
using backend::FleetDriver;
using backend::FleetScheduleService;
using backend::ResponseStatus;
using backend::ServiceConfig;
using backend::SynthesisRequest;
using backend::SynthesisResponse;
using backend::TaskSet;

dse::AnalysisTask analysis_task(const std::string& name, sim::Duration period,
                                sim::Duration wcet, int priority) {
  dse::AnalysisTask t;
  t.name = name;
  t.period = period;
  t.deadline = period;
  t.wcet = wcet;
  t.priority = priority;
  t.deterministic = true;
  return t;
}

std::vector<dse::AnalysisTask> feasible_set() {
  return {analysis_task("a", 10 * sim::kMillisecond, sim::kMillisecond, 1),
          analysis_task("b", 20 * sim::kMillisecond, 2 * sim::kMillisecond, 2)};
}

std::vector<dse::AnalysisTask> infeasible_set() {
  return {analysis_task("x", 10 * sim::kMillisecond, 6 * sim::kMillisecond, 1),
          analysis_task("y", 10 * sim::kMillisecond, 6 * sim::kMillisecond, 2)};
}

std::shared_ptr<const TaskSet> task_set(
    std::vector<dse::AnalysisTask> tasks) {
  return std::make_shared<const TaskSet>(std::move(tasks), 1'000);
}

// --- FleetScheduleService -----------------------------------------------------

TEST(FleetBackend, SubmitDeliversFeasibleArtifactAfterSimLatency) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  SynthesisRequest request;
  request.criticality = Criticality::kResync;
  request.task_set = task_set(feasible_set());
  SynthesisResponse seen;
  sim::Time delivered_at = 0;
  service.submit(request, [&](const SynthesisResponse& response) {
    seen = response;
    delivered_at = simulator.now();
  });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(seen.status, ResponseStatus::kOk);
  ASSERT_NE(seen.artifact, nullptr);
  EXPECT_TRUE(seen.artifact->feasible);
  EXPECT_TRUE(seen.artifact->validated);
  EXPECT_FALSE(seen.cache_hit);
  // At least the round trip plus the service-time floor elapsed.
  EXPECT_GE(delivered_at, FleetScheduleService::kUplinkRtt +
                              service.config().min_service_time);
  EXPECT_EQ(service.completed(), 1u);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(FleetBackend, CrossVehicleCacheSharesOneSynthesis) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  SynthesisRequest request;
  request.task_set = task_set(feasible_set());
  int ok = 0;
  int hits = 0;
  for (std::uint32_t session = 0; session < 5; ++session) {
    request.session = session;
    service.submit(request, [&](const SynthesisResponse& response) {
      if (response.status == ResponseStatus::kOk) ++ok;
      if (response.cache_hit) ++hits;
    });
  }
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(hits, 4);  // one miss synthesizes, four sessions share it
  EXPECT_EQ(service.synthesis_runs(), 1u);
  EXPECT_EQ(service.cache_entries(), 1u);
}

TEST(FleetBackend, SaturatedQueueShedsRoutineAndPreemptsForRecovery) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.queue_capacity = 2;
  config.backpressure_watermark = 2;  // never backpressure below full
  config.recovery_reserve = 0;        // force the preemption path
  config.workers = 1;
  config.min_service_time = 10 * sim::kMillisecond;
  FleetScheduleService service(simulator, config);

  std::vector<ResponseStatus> ota_status(3, ResponseStatus::kUnreachable);
  SynthesisRequest ota;
  ota.criticality = Criticality::kOta;
  ota.task_set = task_set(feasible_set());
  for (int i = 0; i < 3; ++i) {
    service.submit(ota, [&ota_status, i](const SynthesisResponse& response) {
      ota_status[static_cast<std::size_t>(i)] = response.status;
    });
  }
  SynthesisRequest recovery;
  recovery.criticality = Criticality::kRecovery;
  recovery.task_set = task_set(feasible_set());
  ResponseStatus recovery_status = ResponseStatus::kUnreachable;
  service.submit(recovery, [&](const SynthesisResponse& response) {
    recovery_status = response.status;
  });
  simulator.run_until(sim::seconds(2));

  // OTA 1 ran, OTA 3 was shed at the full queue, OTA 2 was preempted (its
  // worker reservation reclaimed) so the recovery remap got its slot.
  EXPECT_EQ(ota_status[0], ResponseStatus::kOk);
  EXPECT_EQ(ota_status[2], ResponseStatus::kShed);
  EXPECT_EQ(ota_status[1], ResponseStatus::kShed);
  EXPECT_EQ(recovery_status, ResponseStatus::kOk);
  EXPECT_EQ(service.preempted(), 1u);
  EXPECT_GE(service.shed(Criticality::kOta), 2u);
  EXPECT_EQ(service.shed(Criticality::kRecovery), 0u);
}

// Regression: shed/backpressure verdicts ride the downlink for the uplink
// round trip before the vehicle sees them. Those in-flight rejection
// notices must not count toward admission depth, or a saturated backend
// rejects new work on the strength of its own reject traffic — a
// self-sustaining congestion state the fleet bench used to collapse into at
// 10k sessions.
TEST(FleetBackend, RejectTrafficCarriesNoAdmissionWeight) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.queue_capacity = 1;
  config.backpressure_watermark = 1;
  config.recovery_reserve = 1;
  config.workers = 1;
  config.min_service_time = 100 * sim::kMillisecond;
  FleetScheduleService service(simulator, config);

  // A recovery occupies the single real queue slot (not preemptible).
  SynthesisRequest recovery;
  recovery.criticality = Criticality::kRecovery;
  recovery.task_set = task_set(feasible_set());
  ResponseStatus first_status = ResponseStatus::kUnreachable;
  service.submit(recovery, [&](const SynthesisResponse& response) {
    first_status = response.status;
  });

  // Flood with routine work: every request is rejected and each verdict
  // is now in flight on the downlink for 10 ms.
  SynthesisRequest ota;
  ota.criticality = Criticality::kOta;
  ota.task_set = task_set(feasible_set());
  for (int i = 0; i < 8; ++i) {
    service.submit(ota, [](const SynthesisResponse&) {});
  }
  EXPECT_EQ(service.shed(Criticality::kOta), 8u);
  EXPECT_EQ(service.queue_depth(), 1u);  // rejects carry no weight

  // While those 8 verdicts are still undelivered, a second recovery must
  // still find the reserve slot.
  ResponseStatus second_status = ResponseStatus::kUnreachable;
  service.submit(recovery, [&](const SynthesisResponse& response) {
    second_status = response.status;
  });
  simulator.run_until(sim::seconds(1));

  EXPECT_EQ(first_status, ResponseStatus::kOk);
  EXPECT_EQ(second_status, ResponseStatus::kOk);
  EXPECT_EQ(service.shed(Criticality::kRecovery), 0u);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(FleetBackend, BackpressureDefersRoutineWithGrowingHint) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.queue_capacity = 16;
  config.backpressure_watermark = 2;
  config.workers = 1;
  config.min_service_time = 10 * sim::kMillisecond;
  FleetScheduleService service(simulator, config);

  SynthesisRequest ota;
  ota.criticality = Criticality::kOta;
  ota.task_set = task_set(feasible_set());
  std::vector<SynthesisResponse> rejected;
  for (int i = 0; i < 2; ++i) {
    service.submit(ota, [](const SynthesisResponse&) {});
  }
  SynthesisRequest resync = ota;
  resync.criticality = Criticality::kResync;
  ResponseStatus resync_status = ResponseStatus::kUnreachable;
  service.submit(resync, [&](const SynthesisResponse& response) {
    resync_status = response.status;
  });
  // Above the watermark: routine work is deferred, not queued.
  for (int i = 0; i < 2; ++i) {
    service.submit(ota, [&](const SynthesisResponse& response) {
      rejected.push_back(response);
    });
  }
  simulator.run_until(sim::seconds(2));

  ASSERT_EQ(rejected.size(), 2u);
  EXPECT_EQ(rejected[0].status, ResponseStatus::kRetryAfter);
  EXPECT_EQ(rejected[1].status, ResponseStatus::kRetryAfter);
  EXPECT_GT(rejected[0].retry_after, 0);
  EXPECT_GE(rejected[1].retry_after, rejected[0].retry_after);
  EXPECT_GE(service.backpressured(), 2u);
  // The watermark only gates kOta: the resync took a normal slot.
  EXPECT_EQ(resync_status, ResponseStatus::kOk);
}

TEST(FleetBackend, CrashLosesOutstandingAndPartitionDropsResponses) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  SynthesisRequest request;
  request.task_set = task_set(feasible_set());

  int callbacks = 0;
  service.submit(request, [&](const SynthesisResponse&) { ++callbacks; });
  simulator.schedule_at(sim::kMillisecond, [&] { service.crash(); });
  simulator.run_until(sim::seconds(1));
  // Crash cancelled the outstanding completion: the client's timeout is
  // the only signal, exactly like a dead backend in the field.
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.crashes(), 1u);

  // While crashed, submissions are silently lost.
  service.submit(request, [&](const SynthesisResponse&) { ++callbacks; });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(callbacks, 0);
  EXPECT_GE(service.lost_unreachable(), 1u);

  // Partition: the request is accepted-side invisible; an in-flight
  // response is dropped at delivery time.
  service.restart();
  service.submit(request, [&](const SynthesisResponse&) { ++callbacks; });
  simulator.schedule_at(simulator.now() + sim::kMillisecond,
                        [&] { service.set_partitioned(true); });
  simulator.run_until(sim::seconds(3));
  EXPECT_EQ(callbacks, 0);
  EXPECT_GE(service.responses_dropped(), 1u);
  service.set_partitioned(false);
}

// --- ScheduleServer error paths ----------------------------------------------

TEST(ScheduleServerErrors, InfeasibleUnderConcurrentCallers) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  SynthesisRequest request;
  request.task_set = task_set(infeasible_set());
  int infeasible = 0;
  std::set<std::string> reasons;
  for (std::uint32_t session = 0; session < 8; ++session) {
    request.session = session;
    service.submit(request, [&](const SynthesisResponse& response) {
      if (response.status == ResponseStatus::kInfeasible) ++infeasible;
      EXPECT_FALSE(response.artifact->feasible);
      reasons.insert(response.artifact->reason);
    });
  }
  simulator.run_until(sim::seconds(2));
  // Every concurrent caller gets the same deterministic verdict, and the
  // negative result is memoized like any other artifact.
  EXPECT_EQ(infeasible, 8);
  EXPECT_EQ(reasons.size(), 1u);
  EXPECT_EQ(service.synthesis_runs(), 1u);
}

TEST(ScheduleServerErrors, CacheHitMatchesFreshRecompute) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  SynthesisRequest request;
  request.task_set = task_set(feasible_set());
  const SynthesisResponse first = service.query(request);
  const SynthesisResponse second = service.query(request);
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);

  const dse::ScheduleServer reference;
  const auto fresh = reference.synthesize(request.task_set->tasks(),
                                          request.task_set->ecu_mips());
  for (const auto* artifact : {first.artifact.get(), second.artifact.get()}) {
    EXPECT_EQ(artifact->feasible, fresh.feasible);
    EXPECT_EQ(artifact->validated, fresh.validated);
    EXPECT_EQ(artifact->synthesis_instructions, fresh.synthesis_instructions);
    ASSERT_EQ(artifact->table.windows.size(), fresh.table.windows.size());
    for (std::size_t i = 0; i < fresh.table.windows.size(); ++i) {
      EXPECT_EQ(artifact->table.windows[i].offset,
                fresh.table.windows[i].offset);
      EXPECT_EQ(artifact->table.windows[i].length,
                fresh.table.windows[i].length);
      EXPECT_EQ(artifact->table.windows[i].task, fresh.table.windows[i].task);
    }
  }
}

// Recovery keeps working when the backend vanishes mid-flight: the DA
// placement check in RecoveryOrchestrator::try_place falls through the
// client's fallback ladder (ECU-local admission) instead of stranding the
// displaced apps.
TEST(ScheduleServerErrors, RecoveryProceedsWhenBackendVanishesMidFlight) {
  sim::Simulator simulator;
  platform::Vehicle vehicle(simulator, model::parse_system(R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
ecu C mips=1000 memory=64M asil=D network=Net
app Brake class=deterministic asil=D memory=4M
  task ctl period=10ms wcet=200K priority=1
app Maps class=nondeterministic asil=QM memory=4M
  task tiles period=50ms wcet=250K priority=9
deploy Brake -> A
deploy Maps -> A
)"));
  platform::DynamicPlatform& dp = vehicle.platform();
  for (const auto& app : dp.system_model().apps()) {
    dp.register_app(app.name,
                    [] { return std::make_unique<platform::Application>(); });
  }
  ASSERT_TRUE(dp.install_all());

  FleetScheduleService service(simulator);
  BackendClient& client = dp.connect_backend(service);
  platform::RecoveryOrchestrator orchestrator(dp);
  orchestrator.engage();

  fault::FaultCampaign campaign(simulator);
  campaign.add_ecu(vehicle.ecu("A"));
  fault::FaultEvent crash;
  crash.at = 300 * sim::kMillisecond;
  crash.kind = fault::FaultKind::kEcuCrash;
  crash.target = "A";
  campaign.schedule(crash);
  campaign.arm();
  // The backend dies just before the vehicle needs it most.
  simulator.schedule_at(250 * sim::kMillisecond, [&] { service.crash(); });
  simulator.run_until(sim::seconds(3));

  ASSERT_FALSE(orchestrator.plans().empty());
  EXPECT_EQ(orchestrator.plans().front().status,
            platform::PlanStatus::kCommitted)
      << orchestrator.plans().front().reason;
  EXPECT_TRUE(orchestrator.stranded().empty());
  // The plan went through the degraded rung, not a fresh backend artifact.
  EXPECT_GE(client.local_admissions() + client.stale_served(), 1u);
}

// --- BackendClient circuit breaker -------------------------------------------

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresThenFastFails) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  service.crash();
  ClientConfig config;
  config.breaker_threshold = 3;
  config.local_fallback = true;
  BackendClient client(simulator, config);
  client.connect(&service);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.breaker(), BreakerState::kClosed);
    const BackendOutcome outcome =
        client.synthesize(feasible_set(), 1'000, Criticality::kResync);
    // Dead backend, empty cache: the ECU-local fast path keeps us safe.
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.locally_admitted);
    EXPECT_EQ(outcome.source, BackendOutcome::Source::kLocalFallback);
  }
  EXPECT_EQ(client.breaker(), BreakerState::kOpen);
  EXPECT_EQ(client.breaker_opens(), 1u);

  const std::uint64_t before = service.lost_unreachable();
  (void)client.synthesize(feasible_set(), 1'000, Criticality::kResync);
  // OPEN short-circuits: no query even reached the (dead) service.
  EXPECT_EQ(service.lost_unreachable(), before);
  EXPECT_GE(client.breaker_fast_fails(), 1u);
}

TEST(CircuitBreaker, ReconnectRevalidatesStaleArtifactsBeforeClosing) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  ClientConfig config;
  config.breaker_threshold = 2;
  config.breaker_open_for = 100 * sim::kMillisecond;
  BackendClient client(simulator, config);
  client.connect(&service);

  std::vector<std::pair<BreakerState, BreakerState>> transitions;
  client.add_listener([&](BreakerState prev, BreakerState next) {
    transitions.emplace_back(prev, next);
  });

  // Warm the vehicle-local cache while the backend is up.
  const BackendOutcome warm =
      client.synthesize(feasible_set(), 1'000, Criticality::kResync);
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.source, BackendOutcome::Source::kBackend);
  EXPECT_EQ(client.cached_artifacts(), 1u);

  service.crash();
  for (int i = 0; i < 2; ++i) {
    const BackendOutcome outcome =
        client.synthesize(feasible_set(), 1'000, Criticality::kResync);
    // Same topology: served stale from the local cache, still safe.
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.stale);
    EXPECT_EQ(outcome.source, BackendOutcome::Source::kCache);
  }
  EXPECT_EQ(client.breaker(), BreakerState::kOpen);
  EXPECT_GE(client.stale_served(), 2u);

  // Heal, wait out the open window, probe: HALF_OPEN -> CLOSED with the
  // stale-served entry re-validated against the live backend first.
  service.restart();
  bool probed = false;
  simulator.schedule_at(simulator.now() + 200 * sim::kMillisecond, [&] {
    const BackendOutcome outcome =
        client.synthesize(feasible_set(), 1'000, Criticality::kResync);
    probed = outcome.ok;
  });
  simulator.run_until(simulator.now() + sim::seconds(1));
  EXPECT_TRUE(probed);
  EXPECT_EQ(client.breaker(), BreakerState::kClosed);
  EXPECT_GE(client.revalidated(), 1u);
  ASSERT_GE(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].second, BreakerState::kOpen);
  EXPECT_EQ(transitions[1].second, BreakerState::kHalfOpen);
  EXPECT_EQ(transitions.back().second, BreakerState::kClosed);
}

TEST(CircuitBreaker, FallbackLadderEndsAtExplicitNone) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  service.crash();
  ClientConfig config;
  config.local_fallback = false;  // ablation: no last rung
  BackendClient client(simulator, config);
  client.connect(&service);
  const BackendOutcome outcome =
      client.synthesize(feasible_set(), 1'000, Criticality::kRecovery);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.source, BackendOutcome::Source::kNone);
  EXPECT_GE(client.exhausted(), 1u);
}

TEST(CircuitBreaker, AsyncRetriesAreCappedJitteredAndDeterministic) {
  const auto run_once = [](std::uint64_t stream) {
    sim::Simulator simulator;
    FleetScheduleService service(simulator);
    service.crash();
    ClientConfig config;
    config.request_timeout = 20 * sim::kMillisecond;
    config.max_attempts = 3;
    config.backoff_base = 10 * sim::kMillisecond;
    config.breaker_threshold = 100;  // keep the breaker out of this test
    config.jitter_stream = stream;
    BackendClient client(simulator, config);
    client.connect(&service);
    SynthesisRequest request;
    request.task_set = task_set(feasible_set());
    int finished = 0;
    sim::Time finished_at = 0;
    BackendOutcome last;
    client.request(request, [&](const BackendOutcome& outcome) {
      ++finished;
      finished_at = simulator.now();
      last = outcome;
    });
    simulator.run_until(sim::seconds(5));
    EXPECT_EQ(finished, 1);  // the callback fires exactly once
    EXPECT_EQ(client.attempts(), 3u);
    EXPECT_EQ(client.timeouts(), 3u);
    EXPECT_TRUE(last.locally_admitted);
    return finished_at;
  };
  const sim::Time a = run_once(7);
  const sim::Time b = run_once(7);
  const sim::Time c = run_once(8);
  EXPECT_EQ(a, b);  // same jitter stream: bit-identical schedule
  EXPECT_NE(a, c);  // distinct streams: decorrelated retry times
}

// --- Transport retransmit jitter ----------------------------------------------

// Records every frame-send instant of a reliable transport aimed at a black
// hole (no receiver, no acks): index 0 is the original send, the rest are
// retransmissions at the (jittered) backoff schedule.
std::vector<sim::Time> retransmit_times(sim::Simulator& simulator,
                                        middleware::TransportConfig config) {
  auto times = std::make_shared<std::vector<sim::Time>>();
  auto transport = std::make_shared<middleware::Transport>(
      [times, &simulator](net::Frame) { times->push_back(simulator.now()); },
      64, simulator, config);
  std::vector<std::uint8_t> message(16, 0xAB);
  transport->send(2, 1, 0, message);
  simulator.run_until(simulator.now() + sim::seconds(10));
  return *times;
}

TEST(TransportJitter, RetransmitsDesynchronizeAcrossPeers) {
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 20 * sim::kMillisecond;
  config.max_retries = 4;
  config.retry_jitter = 0.1;

  sim::Simulator sim_a;
  config.jitter_stream = 1;
  const std::vector<sim::Time> peer_a = retransmit_times(sim_a, config);
  sim::Simulator sim_b;
  config.jitter_stream = 2;
  const std::vector<sim::Time> peer_b = retransmit_times(sim_b, config);
  sim::Simulator sim_a2;
  config.jitter_stream = 1;
  const std::vector<sim::Time> peer_a2 = retransmit_times(sim_a2, config);

  ASSERT_EQ(peer_a.size(), 5u);  // original + 4 retries
  ASSERT_EQ(peer_b.size(), 5u);
  // Same stream: bit-reproducible. Distinct streams: every retransmit
  // lands at a different instant — the lockstep retry storm is gone.
  EXPECT_EQ(peer_a, peer_a2);
  for (std::size_t i = 1; i < peer_a.size(); ++i) {
    EXPECT_NE(peer_a[i], peer_b[i]) << "retry " << i << " still in lockstep";
  }
}

TEST(TransportJitter, ZeroJitterPreservesExactLegacyTiming) {
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 20 * sim::kMillisecond;
  config.max_backoff = 200 * sim::kMillisecond;
  config.max_retries = 3;
  config.retry_jitter = 0.0;
  sim::Simulator simulator;
  const std::vector<sim::Time> times = retransmit_times(simulator, config);
  ASSERT_EQ(times.size(), 4u);
  // Pure exponential off ack_timeout: 20ms, +40ms, +80ms.
  EXPECT_EQ(times[1] - times[0], 20 * sim::kMillisecond);
  EXPECT_EQ(times[2] - times[1], 40 * sim::kMillisecond);
  EXPECT_EQ(times[3] - times[2], 80 * sim::kMillisecond);
}

TEST(TransportJitter, JitterStaysWithinConfiguredBand) {
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 20 * sim::kMillisecond;
  config.max_retries = 5;
  config.retry_jitter = 0.25;
  config.max_backoff = 1000 * sim::kMillisecond;
  sim::Simulator simulator;
  const std::vector<sim::Time> times = retransmit_times(simulator, config);
  ASSERT_EQ(times.size(), 6u);
  sim::Duration base = config.ack_timeout;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const sim::Duration gap = times[i] - times[i - 1];
    const auto lo = static_cast<sim::Duration>(
        static_cast<double>(base) * (1.0 - config.retry_jitter));
    const auto hi = static_cast<sim::Duration>(
        static_cast<double>(base) * (1.0 + config.retry_jitter));
    EXPECT_GE(gap, lo) << "retry " << i;
    EXPECT_LE(gap, hi + 1) << "retry " << i;
    base = std::min<sim::Duration>(
        static_cast<sim::Duration>(static_cast<double>(base) *
                                   middleware::Transport::kBackoffFactor),
        config.max_backoff);
  }
}

// --- Diagnostics uplink queue bound --------------------------------------------

TEST(DiagnosticsQueue, MultiHourOfflineBacklogIsBoundedDropOldest) {
  sim::Simulator simulator;
  auto parsed = model::parse_system(
      "network Net kind=ethernet\n"
      "ecu A mips=100 memory=64M asil=D network=Net\n"
      "app Over class=deterministic asil=B memory=4M\n"
      "  task t period=10ms wcet=900K priority=1\n"
      "deploy Over -> A\n");
  const_cast<model::AppDef*>(parsed.model.app("Over"))
      ->tasks[0]
      .execution_jitter = 0.5;
  platform::NodeConfig node_config;
  node_config.time_triggered = false;
  node_config.admission_control = false;
  platform::Vehicle vehicle(simulator, std::move(parsed),
                            {.node = node_config});
  platform::DynamicPlatform& dp = vehicle.platform();
  platform::PlatformNode& node = *dp.node("A");
  dp.register_app("Over",
                  [] { return std::make_unique<platform::Application>(); });
  ASSERT_TRUE(dp.install_all());

  platform::DiagnosticsService diagnostics(dp);
  diagnostics.attach(node);
  diagnostics.set_uplink_queue_limit(4);
  int uplinked = 0;
  diagnostics.set_uplink([&](const monitor::FaultRecord&) { ++uplinked; });
  diagnostics.set_online(false);

  simulator.run_until(sim::seconds(5));
  ASSERT_GT(diagnostics.all_faults().size(), 4u);
  // The backlog is capped; everything beyond the cap was counted, not kept.
  EXPECT_EQ(diagnostics.queued_for_uplink(), 4u);
  EXPECT_EQ(diagnostics.dropped_uplink(),
            diagnostics.all_faults().size() - 4u);

  diagnostics.set_online(true);
  EXPECT_EQ(uplinked, 4);
  EXPECT_EQ(diagnostics.queued_for_uplink(), 0u);
}

// --- Fleet-scale outage survival ----------------------------------------------

FleetConfig small_fleet(std::uint64_t seed) {
  FleetConfig config;
  config.sessions = 96;
  config.topology_classes = 8;
  config.seed = seed;
  config.horizon = 8 * sim::kSecond;
  config.ota_period = 1 * sim::kSecond;
  config.wave_at = 1 * sim::kSecond;
  config.wave_fraction = 0.5;
  config.wave_stagger = 300 * sim::kMillisecond;
  config.recovery_retry = 200 * sim::kMillisecond;
  config.client.request_timeout = 50 * sim::kMillisecond;
  config.client.backoff_base = 25 * sim::kMillisecond;
  config.client.breaker_open_for = 250 * sim::kMillisecond;
  return config;
}

TEST(FleetBackend, FullOutageLeavesNoVehicleStrandedUnsafe) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  // The outage spans the fault wave: every recovery request of the wave
  // meets a dead backend first.
  FleetConfig config = small_fleet(11);
  config.outage_at = 900 * sim::kMillisecond;
  config.outage_duration = 2 * sim::kSecond;
  FleetDriver driver(simulator, service, config);
  driver.run();

  // Vehicles degraded through the fallback ladder instead of stranding.
  EXPECT_GT(driver.fallback_cache() + driver.fallback_local(), 0u);
  EXPECT_EQ(driver.fallback_none(), 0u);
  EXPECT_GT(driver.client_breaker_opens(), 0u);
  EXPECT_GT(driver.recoveries_completed(), 0u);
  // Vehicles that served stale artifacts re-validated them when their
  // breaker closed after the heal.
  EXPECT_GT(driver.revalidated(), 0u);

  fault::InvariantChecker checker;
  checker.require_backend_drained(service);
  checker.require_no_stranded_vehicles(driver, 2 * sim::kSecond);
  checker.require_fleet_recovery_bounded(driver, 4 * sim::kSecond);
  const auto report = checker.run();
  EXPECT_TRUE(report.passed) << report.summary();
}

TEST(FleetSweep, FleetRunsBitIdenticalAcrossThreadCounts) {
  const auto scenario = [](sim::ScenarioRun& run) {
    FleetConfig config = small_fleet(100 + run.index);
    config.sessions = 32;
    config.horizon = 4 * sim::kSecond;
    config.outage_at = 800 * sim::kMillisecond;
    config.outage_duration = 1 * sim::kSecond;
    config.outage_is_partition = (run.index % 2) == 1;
    FleetScheduleService service(run.simulator);
    FleetDriver driver(run.simulator, service, config);
    driver.run();
    return driver.fingerprint();
  };
  std::vector<std::uint64_t> serial;
  std::vector<std::uint64_t> parallel;
  {
    sim::ScenarioSweep sweep({.seed = 77, .threads = 0});
    serial = sweep.run<std::uint64_t>(6, scenario);
  }
  {
    sim::ScenarioSweep sweep({.seed = 77, .threads = 3});
    parallel = sweep.run<std::uint64_t>(6, scenario);
  }
  ASSERT_EQ(serial.size(), 6u);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(sim::ScenarioSweep::merge_fingerprints(serial),
            sim::ScenarioSweep::merge_fingerprints(parallel));
}

// --- FaultCampaign backend targets ---------------------------------------------

TEST(FleetBackend, CampaignDrivesBackendFailureModes) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  service.set_name("backend");
  fault::FaultCampaign campaign(simulator);
  campaign.add_backend(service);

  fault::FaultEvent crash;
  crash.at = 10 * sim::kMillisecond;
  crash.kind = fault::FaultKind::kBackendCrash;
  crash.target = "backend";
  campaign.schedule(crash);
  fault::FaultEvent restart = crash;
  restart.at = 20 * sim::kMillisecond;
  restart.kind = fault::FaultKind::kBackendRestart;
  campaign.schedule(restart);
  fault::FaultEvent partition = crash;
  partition.at = 30 * sim::kMillisecond;
  partition.kind = fault::FaultKind::kUplinkPartition;
  campaign.schedule(partition);
  fault::FaultEvent heal = crash;
  heal.at = 40 * sim::kMillisecond;
  heal.kind = fault::FaultKind::kUplinkHeal;
  campaign.schedule(heal);
  fault::FaultEvent slow = crash;
  slow.at = 50 * sim::kMillisecond;
  slow.kind = fault::FaultKind::kBackendSlow;
  slow.magnitude = 4.0;
  campaign.schedule(slow);
  campaign.arm();

  simulator.schedule_at(15 * sim::kMillisecond,
                        [&] { EXPECT_TRUE(service.crashed()); });
  simulator.schedule_at(25 * sim::kMillisecond,
                        [&] { EXPECT_FALSE(service.crashed()); });
  simulator.schedule_at(35 * sim::kMillisecond,
                        [&] { EXPECT_TRUE(service.partitioned()); });
  simulator.schedule_at(45 * sim::kMillisecond,
                        [&] { EXPECT_FALSE(service.partitioned()); });
  simulator.run_until(100 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(service.slow_factor(), 4.0);
  EXPECT_EQ(campaign.injected().size(), 5u);
}

// --- Request batching / coalescing (ISSUE 10) ---------------------------------

TEST(FleetBatching, CohortSharesOneDequeueAndResponse) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.batching = true;
  FleetScheduleService service(simulator, config);
  SynthesisRequest request;
  request.criticality = Criticality::kResync;
  request.task_set = task_set(feasible_set());
  int ok = 0;
  for (std::uint32_t session = 0; session < 8; ++session) {
    request.session = session;
    service.submit(request, [&](const SynthesisResponse& response) {
      if (response.status == ResponseStatus::kOk) ++ok;
    });
  }
  simulator.run_until(sim::seconds(2));
  // One worker dequeue answered the whole stampede cohort.
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(service.dequeues(), 1u);
  EXPECT_EQ(service.batches(), 1u);
  EXPECT_EQ(service.coalesced(), 7u);
  EXPECT_EQ(service.completed(), 8u);
  EXPECT_EQ(service.synthesis_runs(), 1u);
  // Cohort of 8 lands in log2 bucket 3: (4, 8].
  EXPECT_EQ(service.batch_size_histogram()[3], 1u);
}

TEST(FleetBatching, CohortMembersAndMemoCacheShareOneArtifact) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.batching = true;
  FleetScheduleService service(simulator, config);
  SynthesisRequest request;
  request.task_set = task_set(feasible_set());
  std::vector<const dse::ScheduleServer::Artifact*> seen;
  for (std::uint32_t session = 0; session < 8; ++session) {
    request.session = session;
    service.submit(request, [&](const SynthesisResponse& response) {
      seen.push_back(response.artifact.get());
    });
  }
  simulator.run_until(sim::seconds(2));
  ASSERT_EQ(seen.size(), 8u);
  EXPECT_EQ(service.coalesced(), 7u);
  // A later hit hands out the memo-cache entry itself: the one artifact
  // every cohort member was given, never a copy.
  const SynthesisResponse hit = service.query(request);
  ASSERT_TRUE(hit.cache_hit);
  ASSERT_NE(hit.artifact, nullptr);
  for (const dse::ScheduleServer::Artifact* artifact : seen) {
    EXPECT_EQ(artifact, hit.artifact.get());
  }
}

TEST(FleetBatching, AdmissionChargesCohortsNotMembers) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.batching = true;
  config.queue_capacity = 1;
  config.backpressure_watermark = 1;
  config.recovery_reserve = 0;
  config.workers = 1;
  FleetScheduleService service(simulator, config);
  SynthesisRequest request;
  request.criticality = Criticality::kResync;
  request.task_set = task_set(feasible_set());
  int ok = 0;
  // Six identical requests ride one queue slot...
  for (std::uint32_t session = 0; session < 6; ++session) {
    request.session = session;
    service.submit(request, [&](const SynthesisResponse& response) {
      if (response.status == ResponseStatus::kOk) ++ok;
    });
  }
  EXPECT_EQ(service.queue_depth(), 1u);
  // ...while a distinct topology needs a second slot and is shed.
  SynthesisRequest other;
  other.criticality = Criticality::kResync;
  other.task_set = task_set(infeasible_set());
  ResponseStatus other_status = ResponseStatus::kOk;
  service.submit(other, [&](const SynthesisResponse& response) {
    other_status = response.status;
  });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(service.coalesced(), 5u);
  EXPECT_EQ(other_status, ResponseStatus::kShed);
  EXPECT_EQ(service.shed_total(), 1u);
}

TEST(FleetBatching, RecoveryJoinerShieldsCohortFromPreemption) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.batching = true;
  config.queue_capacity = 1;
  config.backpressure_watermark = 1;
  config.recovery_reserve = 0;
  config.workers = 1;
  FleetScheduleService service(simulator, config);
  // A routine leader whose cohort picks up a recovery joiner: the cohort's
  // criticality is the minimum (most critical) of its members, so the
  // preemption scan must no longer see it as a routine victim.
  SynthesisRequest leader;
  leader.criticality = Criticality::kOta;
  leader.task_set = task_set(feasible_set());
  int cohort_ok = 0;
  service.submit(leader, [&](const SynthesisResponse& response) {
    if (response.status == ResponseStatus::kOk) ++cohort_ok;
  });
  SynthesisRequest joiner;
  joiner.criticality = Criticality::kRecovery;
  joiner.task_set = task_set(feasible_set());
  service.submit(joiner, [&](const SynthesisResponse& response) {
    if (response.status == ResponseStatus::kOk) ++cohort_ok;
  });
  SynthesisRequest rival;
  rival.criticality = Criticality::kRecovery;
  rival.task_set = task_set(infeasible_set());
  ResponseStatus rival_status = ResponseStatus::kOk;
  service.submit(rival, [&](const SynthesisResponse& response) {
    rival_status = response.status;
  });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(cohort_ok, 2);
  EXPECT_EQ(service.preempted(), 0u);
  // The rival recovery found a full queue and no routine victim.
  EXPECT_EQ(rival_status, ResponseStatus::kShed);
}

TEST(FleetBatching, CrashLosesEveryCohortMember) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.batching = true;
  FleetScheduleService service(simulator, config);
  SynthesisRequest request;
  request.criticality = Criticality::kResync;
  request.task_set = task_set(feasible_set());
  int delivered = 0;
  for (std::uint32_t session = 0; session < 4; ++session) {
    request.session = session;
    service.submit(request,
                   [&](const SynthesisResponse&) { ++delivered; });
  }
  // Crash before service starts (start = submit + rtt/2 = 5 ms).
  simulator.schedule_at(sim::kMillisecond, [&] { service.crash(); });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(service.lost_unreachable(), 4u);
}

// --- Memo-cache collision + eviction (ISSUE 10 satellites) --------------------

TEST(FleetCache, ForcedKeyCollisionResynthesizesInsteadOfWrongArtifact) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator, {});
  // Two topologies forced onto one key: only the secondary signature can
  // tell the cached artifact belongs to a different task set.
  SynthesisRequest first;
  first.task_set = std::make_shared<const TaskSet>(feasible_set(), 1'000, 42);
  SynthesisRequest second;
  second.task_set =
      std::make_shared<const TaskSet>(infeasible_set(), 1'000, 42);

  EXPECT_EQ(service.query(first).status, ResponseStatus::kOk);
  EXPECT_EQ(service.cache_collisions(), 0u);
  // Same key, different topology: refused as a hit, re-synthesized, and
  // the verdict matches the actual task set (infeasible, not the cached
  // feasible artifact).
  EXPECT_EQ(service.query(second).status, ResponseStatus::kInfeasible);
  EXPECT_EQ(service.cache_collisions(), 1u);
  EXPECT_EQ(service.synthesis_runs(), 2u);
  // The overwrite is last-writer-wins in place: flipping back collides
  // again rather than serving the other topology's artifact.
  EXPECT_EQ(service.query(first).status, ResponseStatus::kOk);
  EXPECT_EQ(service.cache_collisions(), 2u);
  EXPECT_EQ(service.synthesis_runs(), 3u);
  EXPECT_EQ(service.cache_entries(), 1u);
}

TEST(FleetCache, ClearedCacheLeavesDriverArtifactsServedStale) {
  sim::Simulator simulator;
  ServiceConfig service_config;
  service_config.crash_clears_cache = true;
  FleetScheduleService service(simulator, service_config);
  FleetConfig config = small_fleet(11);
  config.outage_at = 900 * sim::kMillisecond;
  config.outage_duration = 2 * sim::kSecond;
  FleetDriver driver(simulator, service, config);
  // Mid-outage the memo cache is empty, so the driver's class table holds
  // the only handles to the artifacts its vehicles serve stale.
  std::size_t entries_mid = 1;
  std::uint64_t stale_mid = 0;
  std::uint64_t runs_mid = 0;
  simulator.schedule_at(2'500 * sim::kMillisecond, [&] {
    entries_mid = service.cache_entries();
    stale_mid = driver.stale_served();
    runs_mid = service.synthesis_runs();
  });
  driver.run();
  EXPECT_EQ(entries_mid, 0u);
  EXPECT_GT(stale_mid, 0u);
  EXPECT_EQ(runs_mid, config.topology_classes);
  // After the restart each class's first request misses and re-synthesizes.
  EXPECT_EQ(service.synthesis_runs(), 2 * config.topology_classes);
  EXPECT_EQ(driver.fallback_none(), 0u);
}

TEST(FleetCache, TaskSetDerivesKeyAndLocalVerdictOnce) {
  const TaskSet a(feasible_set(), 1'000);
  const TaskSet b(feasible_set(), 1'000);
  const TaskSet faster(feasible_set(), 2'000);
  const TaskSet overloaded(infeasible_set(), 1'000);
  const TaskSet forced(infeasible_set(), 1'000, a.key());
  // Equal task sets share key and signature; the ECU speed is part of both.
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a.sig(), b.sig());
  EXPECT_NE(a.key(), faster.key());
  EXPECT_NE(a.sig(), faster.sig());
  // A forced key keeps the real signature, so a collision stays visible.
  EXPECT_EQ(forced.key(), a.key());
  EXPECT_EQ(forced.sig(), overloaded.sig());
  EXPECT_NE(forced.sig(), a.sig());
  // The local rung's verdict is dse::admit's.
  EXPECT_TRUE(a.locally_admitted());
  EXPECT_EQ(a.locally_admitted(), dse::admit({}, feasible_set()).admitted);
  EXPECT_FALSE(overloaded.locally_admitted());
  EXPECT_EQ(overloaded.locally_admitted(),
            dse::admit({}, infeasible_set()).admitted);
}

TEST(FleetCache, EvictionUnderTopologyChurn) {
  sim::Simulator simulator;
  ServiceConfig config;
  config.cache_shards = 1;
  config.cache_capacity = 2;
  FleetScheduleService service(simulator, config);
  const auto churn_set = [](int salt) {
    return std::vector<dse::AnalysisTask>{
        analysis_task("churn" + std::to_string(salt), 10 * sim::kMillisecond,
                      (500 + 100 * salt) * sim::kMicrosecond, 1)};
  };
  SynthesisRequest request;
  for (int salt = 0; salt < 4; ++salt) {
    request.task_set = task_set(churn_set(salt));
    EXPECT_EQ(service.query(request).status, ResponseStatus::kOk);
  }
  // Capacity 2, four distinct topologies: two drop-oldest evictions.
  EXPECT_EQ(service.cache_evictions(), 2u);
  EXPECT_EQ(service.cache_entries(), 2u);
  EXPECT_EQ(service.synthesis_runs(), 4u);
  // The evicted topology is a miss again.
  request.task_set = task_set(churn_set(0));
  EXPECT_EQ(service.query(request).status, ResponseStatus::kOk);
  EXPECT_EQ(service.synthesis_runs(), 5u);
}

// --- Compressed fleet driver (ISSUE 10) ---------------------------------------

TEST(FleetDriverScale, KernelTimersReproducePinnedFingerprints) {
  // Two fleets, each pinned to a golden captured before the driver's timers
  // moved onto plain kernel events: an exact per-session stagger, and a
  // 10 ms phase grid feeding service-side cohorts. A change to the timer
  // path, the kernel's (time, seq) order or the client engine that alters
  // any simulated outcome changes these hashes.
  const auto fingerprint_of = [](FleetConfig config,
                                 const ServiceConfig& service_config) {
    sim::Simulator simulator;
    FleetScheduleService service(simulator, service_config);
    config.wave_at = 1'500 * sim::kMillisecond;
    config.outage_at = 1'400 * sim::kMillisecond;
    config.outage_duration = 1 * sim::kSecond;
    FleetDriver driver(simulator, service, config);
    driver.run();
    return driver.fingerprint();
  };
  FleetConfig exact = small_fleet(21);
  exact.sessions = 48;
  exact.horizon = 6 * sim::kSecond;
  EXPECT_EQ(fingerprint_of(exact, ServiceConfig{}), 0x4f6714e9870b5b9eull);

  FleetConfig grid = small_fleet(21);
  grid.sessions = 1'000;
  grid.horizon = 4 * sim::kSecond;
  grid.ota_phase_grid = 10 * sim::kMillisecond;
  ServiceConfig batched;
  batched.batching = true;
  batched.workers = 2;
  batched.min_service_time = 500 * sim::kMicrosecond;
  EXPECT_EQ(fingerprint_of(grid, batched), 0x2e785d4a398bee74ull);
}

// The fingerprint folds 256 quarter-octave latency counts that used to live
// in a private array. Deriving them from obs::Histogram's 1/16-octave
// buckets must give the array the old per-sample loop built.
TEST(FleetDriverScale, QuarterOctaveFoldMatchesPerSampleBuckets) {
  const auto old_bucket = [](sim::Duration latency) {
    const std::uint64_t v =
        latency <= 0 ? 1ull : static_cast<std::uint64_t>(latency);
    const int msb = 63 - __builtin_clzll(v);
    const int sub = msb >= 2 ? static_cast<int>((v >> (msb - 2)) & 3u) : 0;
    return static_cast<std::size_t>(msb * 4 + sub);
  };
  std::vector<sim::Duration> latencies = {
      0, 1, 2, 3, 4, std::numeric_limits<sim::Duration>::max()};
  for (int k = 1; k < 63; ++k) {
    latencies.push_back((sim::Duration{1} << k) - 1);
    latencies.push_back(sim::Duration{1} << k);
  }
  sim::Random rng(8);
  for (int i = 0; i < 20'000; ++i) {
    // Spread over every magnitude: a random 63-bit value shifted down.
    latencies.push_back(static_cast<sim::Duration>(
        (rng.next_u64() >> 1) >> rng.next_below(63)));
  }
  std::array<std::uint64_t, backend::kQuarterOctaves> expected{};
  obs::Histogram histogram;
  for (const sim::Duration latency : latencies) {
    ++expected[old_bucket(latency)];
    histogram.observe(latency);
  }
  EXPECT_EQ(backend::quarter_octave_counts(histogram), expected);
}

TEST(FleetDriverScale, FailoverAndAblationArmsReproducePinnedFingerprints) {
  // Two more goldens, captured before FleetDriver and BackendClient shared
  // one client engine: the two-region failover drill (breaker-driven
  // redirects to the sibling region, then the probe home), and the
  // ladder-ablated arm (no stale cache, no local admission) whose
  // recoveries fall through to kNone.
  {
    sim::Simulator simulator;
    FleetScheduleService region0(simulator);
    FleetScheduleService region1(simulator);
    FleetConfig config = small_fleet(41);
    config.sessions = 60;
    config.outage_at = 900 * sim::kMillisecond;
    config.outage_duration = 2 * sim::kSecond;
    FleetDriver driver(simulator, {&region0, &region1}, config);
    driver.run();
    EXPECT_GT(driver.failovers(), 0u);
    EXPECT_EQ(driver.fingerprint(), 0x5397ab59d56cf70dull);
  }
  {
    sim::Simulator simulator;
    FleetScheduleService service(simulator);
    FleetConfig config = small_fleet(11);
    config.outage_at = 900 * sim::kMillisecond;
    config.outage_duration = 2 * sim::kSecond;
    config.client.local_fallback = false;
    config.client.artifact_cache_capacity = 0;
    FleetDriver driver(simulator, service, config);
    driver.run();
    EXPECT_GT(driver.fallback_none(), 0u);
    EXPECT_EQ(driver.fingerprint(), 0x8649c94696c4c15eull);
  }
}

TEST(FleetDriverScale, RerunRebuildsSessionsWithoutDanglingTimers) {
  // Regression: the driver once captured raw Session pointers in wave and
  // retry lambdas; a second run() rebuilt the session vector and left the
  // old timers dangling. Index captures, plus cancelling the previous run's
  // timers, make re-running safe (ASan guards the old failure mode).
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  FleetConfig config = small_fleet(31);
  config.sessions = 48;
  config.horizon = 5 * sim::kSecond;
  FleetDriver driver(simulator, service, config);
  driver.run();
  const std::uint64_t first_recoveries = driver.recoveries_completed();
  EXPECT_GT(first_recoveries, 0u);
  EXPECT_EQ(driver.unsafe_now(), 0u);
  driver.run();
  // The second run replays the same scenario shape later in sim time.
  EXPECT_GT(driver.recoveries_completed(), first_recoveries);
  EXPECT_EQ(driver.unsafe_now(), 0u);
  EXPECT_EQ(driver.recoveries_outstanding(), 0u);
}

TEST(FleetDriverScale, DestructionCancelsEveryDriverTimer) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  {
    // Cut mid-wave with no drain: wave hits, timeouts, resubmits, recovery
    // retries and the whole outage window are still queued.
    FleetConfig config = small_fleet(61);
    config.sessions = 48;
    config.horizon = 1'200 * sim::kMillisecond;
    config.drain_grace = 0;
    config.outage_at = 1'500 * sim::kMillisecond;
    config.outage_duration = 1 * sim::kSecond;
    FleetDriver driver(simulator, service, config);
    driver.run();
    EXPECT_GT(simulator.pending(), 0u);
  }
  // A crash drops the service's own in-flight deliveries. Anything left
  // would be a driver callback into freed state (ASan guards the run).
  service.crash();
  EXPECT_EQ(simulator.pending(), 0u);
  simulator.run();
}

TEST(FleetDriverScale, TwoRegionFailoverSurvivesRegionOutage) {
  sim::Simulator simulator;
  FleetScheduleService region0(simulator);
  FleetScheduleService region1(simulator);
  region0.set_name("region0");
  region1.set_name("region1");
  FleetConfig config = small_fleet(41);
  config.sessions = 60;
  // Region 0 dies across the wave; its sessions' breakers open and the
  // engine fails attempts over to region 1.
  config.outage_at = 900 * sim::kMillisecond;
  config.outage_duration = 2 * sim::kSecond;
  FleetDriver driver(simulator, {&region0, &region1}, config);
  driver.run();

  EXPECT_EQ(driver.regions(), 2u);
  EXPECT_GT(driver.failovers(), 0u);
  // The sibling's memo cache was cold for region-0 topologies: it had to
  // synthesize, not just serve hits.
  EXPECT_GT(region1.synthesis_runs(), 0u);
  // Failover recovers vehicles with *fresh* artifacts even mid-outage: no
  // vehicle was stranded and nothing fell through the ladder.
  EXPECT_EQ(driver.fallback_none(), 0u);
  EXPECT_GT(driver.recoveries_completed(), 0u);
  fault::InvariantChecker checker;
  checker.require_no_stranded_vehicles(driver, 2 * sim::kSecond);
  checker.require_fleet_recovery_bounded(driver, 4 * sim::kSecond);
  const auto report = checker.run();
  EXPECT_TRUE(report.passed) << report.summary();
}

TEST(FleetDriverScale, TopologyDriftFragmentsKeySpace) {
  sim::Simulator simulator;
  FleetScheduleService service(simulator);
  FleetConfig config = small_fleet(51);
  config.sessions = 40;
  config.topology_classes = 4;
  config.topology_drift_fraction = 0.5;
  config.wave_fraction = 0.0;  // routine load only
  config.horizon = 4 * sim::kSecond;
  FleetDriver driver(simulator, service, config);
  driver.run();
  // Drifted vehicles became singleton classes beyond the 4 base classes,
  // and each distinct key cost its own synthesis.
  EXPECT_GT(driver.topology_class_count(), 4u);
  EXPECT_LE(driver.topology_class_count(), 44u);
  EXPECT_GT(service.synthesis_runs(), 4u);
  EXPECT_EQ(driver.unsafe_now(), 0u);
}

}  // namespace
}  // namespace dynaplat
