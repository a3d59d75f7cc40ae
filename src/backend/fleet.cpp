#include "backend/fleet.hpp"

#include <algorithm>

#include "obs/fnv.hpp"
#include "sim/random.hpp"

namespace dynaplat::backend {

namespace {

// Stream-id namespaces under FleetConfig::seed. Keep these distinct from
// each other; retry jitter draws from the client engine's own seed.
constexpr std::uint64_t kTopologyStream = 0x1000'0000ull;
constexpr std::uint64_t kWaveStream = 0x2000'0000ull;
constexpr std::uint64_t kDriftStream = 0x3000'0000ull;

/// Quarter-octave latency bucket: 4 sub-buckets per power of two.
std::size_t latency_bucket(sim::Duration latency) {
  const std::uint64_t v =
      latency <= 0 ? 1ull : static_cast<std::uint64_t>(latency);
  const int msb = 63 - __builtin_clzll(v);
  const int sub = msb >= 2 ? static_cast<int>((v >> (msb - 2)) & 3u) : 0;
  return static_cast<std::size_t>(msb * 4 + sub);
}

}  // namespace

std::array<std::uint64_t, kQuarterOctaves> quarter_octave_counts(
    const obs::Histogram& latency) {
  std::array<std::uint64_t, kQuarterOctaves> counts{};
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    const std::uint64_t n = latency.count_at(i);
    if (n == 0) continue;
    // A 1/16-octave bucket lies inside one quarter-octave bucket, so its
    // lower edge names that bucket. Integer samples stay below 2^63; the
    // underflow bucket (zero and below) folds to bucket 0.
    const double lower = obs::Histogram::bucket_lower(i);
    const std::size_t quarter =
        lower < 1.0 ? 0 : latency_bucket(static_cast<sim::Duration>(lower));
    counts[quarter] += n;
  }
  return counts;
}

std::vector<dse::AnalysisTask> FleetDriver::make_tasks(std::uint64_t seed,
                                                       std::size_t topology) {
  sim::Random rng = sim::Random::stream(seed, kTopologyStream + topology);
  const int count = static_cast<int>(rng.uniform_int(3, 7));
  static const sim::Duration kPeriods[] = {
      10 * sim::kMillisecond, 20 * sim::kMillisecond, 50 * sim::kMillisecond,
      100 * sim::kMillisecond};
  std::vector<dse::AnalysisTask> tasks;
  tasks.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    dse::AnalysisTask task;
    task.name = "t" + std::to_string(topology) + "." + std::to_string(i);
    task.period = kPeriods[rng.next_below(4)];
    task.deadline = task.period;
    // Per-task utilization 2%..12%: a 3..7-task set stays comfortably
    // schedulable, so infeasibility comes from explicit test inputs, not
    // the generator.
    const double util = rng.uniform(0.02, 0.12);
    task.wcet = std::max<sim::Duration>(
        static_cast<sim::Duration>(static_cast<double>(task.period) * util),
        10 * sim::kMicrosecond);
    task.priority = 8 + i;
    task.deterministic = (i == 0);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

FleetDriver::FleetDriver(sim::Simulator& simulator,
                         FleetScheduleService& service, FleetConfig config)
    : FleetDriver(simulator, std::vector<FleetScheduleService*>{&service},
                  std::move(config)) {}

FleetDriver::FleetDriver(sim::Simulator& simulator,
                         std::vector<FleetScheduleService*> services,
                         FleetConfig config)
    : sim_(simulator),
      services_(std::move(services)),
      config_(config),
      engine_(simulator, config.client, *this) {
  // services_ must be non-empty; both public constructors guarantee it in
  // sane use (the reference overload by construction).
  config_.sessions = std::max<std::size_t>(config_.sessions, 1);
  config_.topology_classes = std::max<std::size_t>(config_.topology_classes, 1);
  engine_.set_regions(services_);
}

FleetDriver::~FleetDriver() { cancel_timers(); }

void FleetDriver::cancel_timer(sim::EventId& timer) {
  sim_.cancel(timer);
  timer = sim::EventId{};
}

void FleetDriver::cancel_timers() {
  for (sim::EventId& timer : ota_timers_) cancel_timer(timer);
  ota_timers_.clear();
  for (sim::EventId& timer : wake_) cancel_timer(timer);
  for (sim::EventId& timer : outage_events_) cancel_timer(timer);
}

// --- Fleet construction ------------------------------------------------------

void FleetDriver::build_classes() {
  classes_.clear();
  classes_.reserve(config_.topology_classes);
  for (std::size_t c = 0; c < config_.topology_classes; ++c) {
    // Two ECU speed grades, aligned with the topology class so cache keys
    // stay shared within a class.
    TopologyClass cls;
    cls.task_set = std::make_shared<const TaskSet>(
        make_tasks(config_.seed, c), (c % 2 == 0) ? 1'000 : 2'000);
    classes_.push_back(std::move(cls));
  }
}

void FleetDriver::reset_sessions() {
  // Tear down anything a previous run() left queued or in flight before the
  // state it points at is rebuilt: cancel the driver's timers and drop the
  // engine's in-flight requests (a late service response no-ops).
  cancel_timers();
  const std::size_t n = config_.sessions;
  engine_.reset(n);

  build_classes();

  state_.assign(n, static_cast<std::uint8_t>(SessionState::kNominal));
  flags_.assign(n, 0);
  class_of_.assign(n, 0);
  unsafe_since_.assign(n, 0);
  recovery_issued_.assign(n, 0);
  wake_.assign(n, sim::EventId{});
  for (std::size_t i = 0; i < n; ++i) {
    class_of_[i] = static_cast<std::uint32_t>(i % config_.topology_classes);
    if (config_.topology_drift_fraction <= 0.0) continue;
    sim::Random draw = sim::Random::stream(config_.seed, kDriftStream + i);
    if (!draw.chance(config_.topology_drift_fraction)) continue;
    // Drifted vehicle: its task set mutated away from the class (a local
    // calibration tweak), so it keys alone — a singleton topology class
    // fragmenting the backend memo cache.
    const TaskSet& base = *classes_[class_of_[i]].task_set;
    std::vector<dse::AnalysisTask> tasks = base.tasks();
    tasks[i % tasks.size()].wcet +=
        static_cast<sim::Duration>(1 + i % 7) * sim::kMicrosecond;
    TopologyClass cls;
    cls.task_set =
        std::make_shared<const TaskSet>(std::move(tasks), base.ecu_mips());
    class_of_[i] = static_cast<std::uint32_t>(classes_.size());
    classes_.push_back(std::move(cls));
  }

  unsafe_now_ = 0;
  degraded_now_ = 0;
}

void FleetDriver::run() {
  reset_sessions();
  // All config instants are relative to the run's start, so a re-run on a
  // simulator whose clock already advanced replays the same scenario shape.
  const sim::Time start = sim_.now();

  // Staggered routine OTA resync cadence. With a phase grid the stagger is
  // quantized onto shared instants, so the service sees one request cohort
  // per tick instant instead of one request per session.
  if (config_.ota_period > 0) {
    ota_timers_.reserve(config_.sessions);
    for (std::size_t i = 0; i < config_.sessions; ++i) {
      sim::Time first = static_cast<sim::Time>(i) * config_.ota_period /
                        static_cast<sim::Time>(config_.sessions);
      if (config_.ota_phase_grid > 0) {
        first = first / config_.ota_phase_grid * config_.ota_phase_grid;
      }
      const std::uint32_t s = static_cast<std::uint32_t>(i);
      ota_timers_.push_back(sim_.schedule_every(
          start + first, config_.ota_period, [this, s] { issue_ota(s); }));
    }
  }

  // Fault wave: a deterministic per-session draw decides who is hit and
  // when inside the stagger window.
  if (config_.wave_fraction > 0.0 && config_.wave_at > 0) {
    for (std::size_t i = 0; i < config_.sessions; ++i) {
      sim::Random draw = sim::Random::stream(config_.seed, kWaveStream + i);
      if (!draw.chance(config_.wave_fraction)) continue;
      const sim::Time at =
          start + config_.wave_at +
          static_cast<sim::Duration>(draw.uniform01() *
                                     static_cast<double>(config_.wave_stagger));
      const std::uint32_t s = static_cast<std::uint32_t>(i);
      wake_[s] = sim_.schedule_at(at, [this, s] { hit_with_wave(s); });
    }
  }

  // Driver-injected backend outage, hitting region 0.
  if (config_.outage_at > 0 && config_.outage_duration > 0) {
    heal_time_ = start + config_.outage_at + config_.outage_duration;
    FleetScheduleService* target = services_.front();
    if (config_.outage_is_partition) {
      outage_events_[0] =
          sim_.schedule_at(start + config_.outage_at,
                           [target] { target->set_partitioned(true); });
      outage_events_[1] = sim_.schedule_at(
          heal_time_, [target] { target->set_partitioned(false); });
    } else {
      outage_events_[0] = sim_.schedule_at(start + config_.outage_at,
                                           [target] { target->crash(); });
      outage_events_[1] =
          sim_.schedule_at(heal_time_, [target] { target->restart(); });
    }
  }

  sim_.run_until(start + config_.horizon);

  // Drain: stop issuing routine work and let everything in flight settle,
  // so the end-of-run invariants (backend drained, recoveries complete)
  // judge a quiescent system rather than the arbitrary horizon cut.
  for (sim::EventId& timer : ota_timers_) cancel_timer(timer);
  ota_timers_.clear();
  if (config_.drain_grace > 0) {
    sim_.run_until(start + config_.horizon + config_.drain_grace);
  }
}

static_assert(FleetDriver::hot_bytes_per_session() <= 64,
              "per-session hot state must stay within one cache line");

// --- Client-engine hooks -----------------------------------------------------

void FleetDriver::build_request(std::uint32_t s, std::uint32_t kind,
                                SynthesisRequest& request) {
  request.task_set = classes_[class_of_[s]].task_set;
  request.criticality =
      kind == kKindRecovery ? Criticality::kRecovery : Criticality::kOta;
  request.session = s;
}

void FleetDriver::store_artifact(std::uint32_t s, std::uint32_t,
                                 const ArtifactHandle& artifact) {
  // The artifact is shared per class, presence is tracked per session; a
  // fresh store clears the stale marker.
  classes_[class_of_[s]].artifact = artifact;
  flags_[s] = static_cast<std::uint8_t>((flags_[s] | kFlagHasArtifact) &
                                        ~kFlagStaleUsed);
}

const dse::ScheduleServer::Artifact* FleetDriver::serve_stale(std::uint32_t s,
                                                              std::uint32_t) {
  const dse::ScheduleServer::Artifact* artifact =
      classes_[class_of_[s]].artifact.get();
  if ((flags_[s] & kFlagHasArtifact) == 0 || !artifact->feasible) {
    return nullptr;
  }
  flags_[s] |= kFlagStaleUsed;
  return artifact;
}

void FleetDriver::on_breaker(std::uint32_t s, BreakerState,
                             BreakerState next) {
  if (next == BreakerState::kClosed) revalidate_stale(s);
}

void FleetDriver::revalidate_stale(std::uint32_t s) {
  if ((flags_[s] & kFlagStaleUsed) == 0) return;
  SynthesisRequest request;
  build_request(s, kKindOta, request);
  request.criticality = Criticality::kResync;
  const SynthesisResponse response =
      services_[engine_.home_region(s)]->query(request);
  if (response.status == ResponseStatus::kOk ||
      response.status == ResponseStatus::kInfeasible) {
    classes_[class_of_[s]].artifact = response.artifact;
    flags_[s] &= ~kFlagStaleUsed;
    ++revalidated_;
  }
}

void FleetDriver::on_outcome(std::uint32_t s, std::uint32_t kind,
                             sim::Time issued, const BackendOutcome& outcome,
                             const dse::ScheduleServer::Artifact*) {
  if (kind == kKindOta) {
    if (outcome.source == BackendOutcome::Source::kBackend && outcome.ok) {
      ++ota_completed_;
      record_latency(sim_.now() - issued);
    } else {
      // Shed / backpressured / degraded: the next cadence tick retries.
      ++ota_deferred_;
    }
    return;
  }
  flags_[s] &= static_cast<std::uint8_t>(~kFlagRecoveryInflight);
  if (state_of(s) == SessionState::kNominal) return;
  if (outcome.source == BackendOutcome::Source::kBackend && outcome.ok) {
    // Fresh backend artifact: fully recovered.
    record_latency(sim_.now() - recovery_issued_[s]);
    mark_safe(s, /*recovered=*/true);
    return;
  }
  if (outcome.ok) {
    // Stale cache or local admission: safe, but keep pressing for a fresh
    // artifact on the recovery cadence.
    if (outcome.source == BackendOutcome::Source::kCache) ++fallback_cache_;
    if (outcome.source == BackendOutcome::Source::kLocalFallback) {
      ++fallback_local_;
    }
    mark_safe(s, /*recovered=*/false);
  } else {
    // Nothing worked: still unsafe. Keep retrying on the cadence — this
    // is the stranding the no-fallback ablation arm exhibits.
    ++fallback_none_;
  }
  wake_[s] = sim_.schedule_in(config_.recovery_retry,
                              [this, s] { issue_recovery(s); });
}

// --- Fleet behaviour ---------------------------------------------------------

void FleetDriver::issue_ota(std::uint32_t s) {
  // A vehicle mid-recovery doesn't pile routine work onto the backend.
  if (state_of(s) != SessionState::kNominal) return;
  engine_.request(s, kKindOta);
}

void FleetDriver::hit_with_wave(std::uint32_t s) {
  if (state_of(s) != SessionState::kNominal) return;
  state_[s] = static_cast<std::uint8_t>(SessionState::kUnsafe);
  unsafe_since_[s] = sim_.now();
  ++unsafe_now_;
  peak_unsafe_ = std::max(peak_unsafe_, unsafe_now_);
  issue_recovery(s);
}

void FleetDriver::issue_recovery(std::uint32_t s) {
  if ((flags_[s] & kFlagRecoveryInflight) != 0) return;
  if (state_of(s) == SessionState::kNominal) return;
  flags_[s] |= kFlagRecoveryInflight;
  recovery_issued_[s] = sim_.now();
  engine_.request(s, kKindRecovery);
}

void FleetDriver::mark_safe(std::uint32_t s, bool recovered) {
  const SessionState state = state_of(s);
  if (state == SessionState::kUnsafe) {
    --unsafe_now_;
    max_unsafe_duration_ =
        std::max(max_unsafe_duration_, sim_.now() - unsafe_since_[s]);
  } else if (state == SessionState::kSafeDegraded && recovered) {
    --degraded_now_;
  }
  if (recovered) {
    state_[s] = static_cast<std::uint8_t>(SessionState::kNominal);
    ++recoveries_completed_;
    last_recovery_done_ = sim_.now();
  } else {
    if (state == SessionState::kUnsafe) ++degraded_now_;
    state_[s] = static_cast<std::uint8_t>(SessionState::kSafeDegraded);
  }
}

void FleetDriver::record_latency(sim::Duration latency) {
  latency_.observe(latency);
  if (config_.record_latencies) latencies_.push_back(latency);
}

std::uint64_t FleetDriver::fingerprint() const {
  using obs::fnv1a_u64;
  std::uint64_t hash = obs::kFingerprintOffset;
  hash = fnv1a_u64(hash, static_cast<std::uint64_t>(unsafe_now_));
  hash = fnv1a_u64(hash, static_cast<std::uint64_t>(peak_unsafe_));
  hash = fnv1a_u64(hash, static_cast<std::uint64_t>(max_unsafe_duration_));
  hash = fnv1a_u64(hash, static_cast<std::uint64_t>(degraded_now_));
  hash = fnv1a_u64(hash, static_cast<std::uint64_t>(last_recovery_done_));
  hash = fnv1a_u64(hash, ota_completed_);
  hash = fnv1a_u64(hash, ota_deferred_);
  hash = fnv1a_u64(hash, recoveries_completed_);
  hash = fnv1a_u64(hash, fallback_cache_);
  hash = fnv1a_u64(hash, fallback_local_);
  hash = fnv1a_u64(hash, fallback_none_);
  hash = fnv1a_u64(hash, engine_.attempts());
  hash = fnv1a_u64(hash, engine_.timeouts());
  hash = fnv1a_u64(hash, engine_.breaker_opens());
  hash = fnv1a_u64(hash, engine_.breaker_fast_fails());
  hash = fnv1a_u64(hash, engine_.stale_served());
  hash = fnv1a_u64(hash, engine_.local_admissions());
  hash = fnv1a_u64(hash, revalidated_);
  hash = fnv1a_u64(hash, engine_.exhausted());
  hash = fnv1a_u64(hash, engine_.failovers());
  hash = fnv1a_u64(hash, latency_.count());
  hash = fnv1a_u64(hash, static_cast<std::uint64_t>(latency_.sum()));
  hash = fnv1a_u64(hash, static_cast<std::uint64_t>(latency_.max()));
  for (const std::uint64_t n : quarter_octave_counts(latency_)) {
    hash = fnv1a_u64(hash, n);
  }
  hash = fnv1a_u64(hash, static_cast<std::uint64_t>(latencies_.size()));
  for (const sim::Duration latency : latencies_) {
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(latency));
  }
  const std::size_t n = state_.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(state_[i]) |
                               static_cast<std::uint64_t>(flags_[i]) << 8 |
                               static_cast<std::uint64_t>(
                                   engine_.packed_breaker(i)) << 16 |
                               static_cast<std::uint64_t>(
                                   engine_.jitter_draws(i)) << 32);
    hash = fnv1a_u64(hash, class_of_[i]);
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(engine_.open_until(i)));
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(unsafe_since_[i]));
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(recovery_issued_[i]));
  }
  for (const FleetScheduleService* service : services_) {
    hash = fnv1a_u64(hash, service->fingerprint());
  }
  return hash;
}

}  // namespace dynaplat::backend
