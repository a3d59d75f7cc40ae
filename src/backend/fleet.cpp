#include "backend/fleet.hpp"

#include <algorithm>

#include "sim/random.hpp"

namespace dynaplat::backend {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  for (std::size_t i = 0; i < sizeof(value); ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

// Stream-id namespaces under FleetConfig::seed. Keep these distinct from
// each other; jitter streams use the session index directly on the
// client's own jitter_seed.
constexpr std::uint64_t kTopologyStream = 0x1000'0000ull;
constexpr std::uint64_t kWaveStream = 0x2000'0000ull;
constexpr std::uint64_t kDriftStream = 0x3000'0000ull;

constexpr std::uint32_t kNoFree = 0xFFFFFFFFu;
constexpr std::uint8_t kKindOta = 0;
constexpr std::uint8_t kKindRecovery = 1;

/// Log-scale latency bucket: 4 sub-buckets per power of two (±~12%).
std::size_t latency_bucket(sim::Duration latency) {
  const std::uint64_t v =
      latency <= 0 ? 1ull : static_cast<std::uint64_t>(latency);
  const int msb = 63 - __builtin_clzll(v);
  const int sub = msb >= 2 ? static_cast<int>((v >> (msb - 2)) & 3u) : 0;
  return static_cast<std::size_t>(msb * 4 + sub);
}

}  // namespace

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
    : sim_(simulator), services_(std::move(services)), config_(config) {
  // services_ must be non-empty; both public constructors guarantee it in
  // sane use (the reference overload by construction).
  config_.sessions = std::max<std::size_t>(config_.sessions, 1);
  config_.topology_classes = std::max<std::size_t>(config_.topology_classes, 1);
}

FleetDriver::~FleetDriver() { cancel_timers(); }

void FleetDriver::cancel_timer(sim::EventId& timer) {
  sim_.cancel(timer);
  timer = sim::EventId{};
}

void FleetDriver::cancel_timers() {
  for (std::size_t idx = 0; idx < pending_.size(); ++idx) {
    if (!pending_[idx].in_use) continue;
    cancel_timer(pending_[idx].timeout);
    cancel_timer(pending_[idx].resubmit);
  }
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
    TopologyClass cls;
    cls.tasks = make_tasks(config_.seed, c);
    // Two ECU speed grades, aligned with the topology class so cache keys
    // stay shared within a class.
    cls.ecu_mips = (c % 2 == 0) ? 1'000 : 2'000;
    cls.key = topology_key(cls.tasks, cls.ecu_mips);
    classes_.push_back(std::move(cls));
  }
}

void FleetDriver::reset_sessions() {
  // Tear down anything a previous run() left queued or in flight before the
  // state it points at is rebuilt: cancel its timers and free live slab
  // entries (bumps generations, so a late service response no-ops).
  cancel_timers();
  for (std::size_t idx = 0; idx < pending_.size(); ++idx) {
    if (!pending_[idx].in_use) continue;
    free_pending((static_cast<std::uint64_t>(idx) + 1) << 32 |
                 pending_[idx].gen);
  }

  build_classes();

  const std::size_t n = config_.sessions;
  state_.assign(n, static_cast<std::uint8_t>(SessionState::kNominal));
  flags_.assign(n, 0);
  breaker_.assign(n, 0);  // CLOSED, zero consecutive failures
  class_of_.assign(n, 0);
  jitter_draws_.assign(n, 0);
  open_until_.assign(n, 0);
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
    TopologyClass cls;
    const TopologyClass& base = classes_[class_of_[i]];
    cls.tasks = base.tasks;
    cls.ecu_mips = base.ecu_mips;
    dse::AnalysisTask& mutated = cls.tasks[i % cls.tasks.size()];
    mutated.wcet +=
        static_cast<sim::Duration>(1 + i % 7) * sim::kMicrosecond;
    cls.key = topology_key(cls.tasks, cls.ecu_mips);
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

// --- Compact per-session client engine ---------------------------------------
// BackendClient semantics (timeout / capped jittered backoff / breaker /
// fallback ladder / stale revalidation) replayed over the SoA arrays, with
// one addition: while the home region's breaker is OPEN, attempts fail
// over to the sibling region instead of fast-failing (regions > 1 only).
// Only home-region results feed the home breaker; the HALF_OPEN probe at
// open-window expiry is what returns traffic home.

void FleetDriver::set_breaker(std::uint32_t s, BreakerState state,
                              int failures) {
  breaker_[s] = static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(state) & kBreakerStateMask) |
      (std::min(failures, 63) << 2));
}

double FleetDriver::jitter_draw(std::uint32_t s) {
  // Stateless per-draw derivation: (session, draw#) indexes a pure hash
  // stream, so no generator state is stored per session.
  const std::uint64_t stream =
      static_cast<std::uint64_t>(s) << 32 | jitter_draws_[s]++;
  return sim::Random::stream(config_.client.jitter_seed, stream).uniform01();
}

void FleetDriver::record_success(std::uint32_t s) {
  const BreakerState prev = breaker_of(s);
  set_breaker(s, BreakerState::kClosed, 0);
  // Breaker closing lifts degradation only after stale artifacts are
  // re-validated against the backend (same ordering as BackendClient).
  if (prev != BreakerState::kClosed) revalidate_stale(s);
}

void FleetDriver::record_failure(std::uint32_t s) {
  const BreakerState state = breaker_of(s);
  const int failures = std::min(failures_of(s) + 1, 63);
  const bool open = state == BreakerState::kHalfOpen ||
                    (state == BreakerState::kClosed &&
                     failures >= config_.client.breaker_threshold);
  if (open) {
    set_breaker(s, BreakerState::kOpen, failures);
    open_until_[s] = sim_.now() + config_.client.breaker_open_for;
    ++breaker_opens_;
  } else {
    set_breaker(s, state, failures);
  }
}

void FleetDriver::revalidate_stale(std::uint32_t s) {
  if ((flags_[s] & kFlagStaleUsed) == 0) return;
  TopologyClass& cls = classes_[class_of_[s]];
  SynthesisRequest request;
  request.tasks = cls.tasks;
  request.ecu_mips = cls.ecu_mips;
  request.session = s;
  request.key_hint = cls.key;
  const SynthesisResponse response = services_[home_region(s)]->query(request);
  if (response.status == ResponseStatus::kOk ||
      response.status == ResponseStatus::kInfeasible) {
    cls.artifact = response.artifact;
    cls.artifact_valid = true;
    flags_[s] &= ~kFlagStaleUsed;
    ++revalidated_;
  }
}

std::uint64_t FleetDriver::begin_request(std::uint32_t s, std::uint8_t kind) {
  std::uint32_t idx;
  if (pending_free_ != kNoFree) {
    idx = pending_free_;
    pending_free_ = pending_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  Pending& pending = pending_[idx];
  pending.session = s;
  pending.kind = kind;
  pending.target_region = home_region(s);
  pending.attempt = 0;
  pending.attempt_token = 0;
  pending.in_use = true;
  pending.backoff = 0;
  pending.issued = sim_.now();
  pending.timeout = sim::EventId{};
  pending.resubmit = sim::EventId{};
  const std::uint64_t id =
      (static_cast<std::uint64_t>(idx) + 1) << 32 | pending.gen;
  start_attempt(id);
  return id;
}

FleetDriver::Pending* FleetDriver::lookup(std::uint64_t id) {
  const std::uint64_t slot = (id >> 32) - 1;
  if (slot >= pending_.size()) return nullptr;
  Pending& pending = pending_[slot];
  if (!pending.in_use ||
      pending.gen != static_cast<std::uint32_t>(id & 0xFFFFFFFFu)) {
    return nullptr;
  }
  return &pending;
}

void FleetDriver::free_pending(std::uint64_t id) {
  Pending* pending = lookup(id);
  if (pending == nullptr) return;
  cancel_timer(pending->timeout);
  cancel_timer(pending->resubmit);
  pending->in_use = false;
  ++pending->gen;
  pending->next_free = pending_free_;
  pending_free_ = static_cast<std::uint32_t>((id >> 32) - 1);
}

void FleetDriver::start_attempt(std::uint64_t id) {
  Pending* pending = lookup(id);
  if (pending == nullptr) return;
  pending->resubmit = sim::EventId{};
  const std::uint32_t s = pending->session;
  const std::uint8_t home = home_region(s);
  std::uint8_t target = home;
  if (breaker_of(s) == BreakerState::kOpen) {
    if (sim_.now() >= open_until_[s]) {
      // Open window expired: one HALF_OPEN probe goes home.
      set_breaker(s, BreakerState::kHalfOpen, failures_of(s));
    } else if (services_.size() > 1) {
      // Home is known-bad: redirect this attempt to the sibling region.
      target = static_cast<std::uint8_t>((home + 1) % services_.size());
      ++failovers_;
    } else {
      ++breaker_fast_fails_;
      finish_with_fallback(id);
      return;
    }
  }
  ++attempts_;
  ++pending->attempt;
  const std::uint32_t token = ++pending->attempt_token;
  pending->target_region = target;

  const TopologyClass& cls = classes_[class_of_[s]];
  SynthesisRequest request;
  request.criticality =
      pending->kind == kKindRecovery ? Criticality::kRecovery : Criticality::kOta;
  request.tasks = cls.tasks;
  request.ecu_mips = cls.ecu_mips;
  request.session = s;
  request.key_hint = cls.key;
  services_[target]->submit(request,
                            [this, id, token](const SynthesisResponse& response) {
                              on_response(id, token, response);
                            });
  pending->timeout = sim_.schedule_in(config_.client.request_timeout,
                                      [this, id] { on_timeout(id); });
}

void FleetDriver::on_response(std::uint64_t id, std::uint32_t token,
                              const SynthesisResponse& response) {
  Pending* pending = lookup(id);
  if (pending == nullptr || pending->attempt_token != token) return;
  cancel_timer(pending->timeout);
  const std::uint32_t s = pending->session;
  const bool was_home = pending->target_region == home_region(s);
  switch (response.status) {
    case ResponseStatus::kOk:
    case ResponseStatus::kInfeasible: {
      if (was_home) record_success(s);
      Outcome outcome;
      outcome.source = BackendOutcome::Source::kBackend;
      outcome.ok = response.status == ResponseStatus::kOk &&
                   response.artifact.feasible;
      if (outcome.ok && config_.client.artifact_cache_capacity > 0) {
        // Vehicle-local artifact cache: bytes shared per class, presence
        // tracked per session (capacity 0 ablates it, as in BackendClient).
        // A fresh store clears the stale marker.
        TopologyClass& cls = classes_[class_of_[s]];
        cls.artifact = response.artifact;
        cls.artifact_valid = true;
        flags_[s] =
            static_cast<std::uint8_t>((flags_[s] | kFlagHasArtifact) &
                                      ~kFlagStaleUsed);
      }
      finish(id, outcome);
      return;
    }
    case ResponseStatus::kShed:
    case ResponseStatus::kRetryAfter:
      // The backend answered: comms are fine (the breaker tracks reachability,
      // not load-shedding).
      if (was_home) record_success(s);
      retry_or_fail(id, response.retry_after);
      return;
    case ResponseStatus::kUnreachable:
      if (was_home) record_failure(s);
      retry_or_fail(id, 0);
      return;
  }
}

void FleetDriver::on_timeout(std::uint64_t id) {
  Pending* pending = lookup(id);
  if (pending == nullptr) return;
  pending->timeout = sim::EventId{};
  ++timeouts_;
  ++pending->attempt_token;  // a late response to this attempt is ignored
  if (pending->target_region == home_region(pending->session)) {
    record_failure(pending->session);
  }
  retry_or_fail(id, 0);
}

void FleetDriver::retry_or_fail(std::uint64_t id, sim::Duration floor_delay) {
  Pending* pending = lookup(id);
  if (pending == nullptr) return;
  const std::uint32_t s = pending->session;
  // Out of attempts — or the breaker just opened with nowhere to fail over
  // to. With a sibling region the retry proceeds and start_attempt
  // redirects it.
  if (pending->attempt >= config_.client.max_attempts ||
      (breaker_of(s) == BreakerState::kOpen && services_.size() == 1)) {
    finish_with_fallback(id);
    return;
  }
  const sim::Duration delay = std::max(next_backoff(*pending), floor_delay);
  pending->resubmit =
      sim_.schedule_in(delay, [this, id] { start_attempt(id); });
}

sim::Duration FleetDriver::next_backoff(Pending& pending) {
  if (pending.backoff == 0) {
    pending.backoff = config_.client.backoff_base;
  } else {
    pending.backoff = std::min<sim::Duration>(
        static_cast<sim::Duration>(static_cast<double>(pending.backoff) *
                                   config_.client.backoff_factor),
        config_.client.max_backoff);
  }
  const double factor =
      1.0 + config_.client.jitter * (2.0 * jitter_draw(pending.session) - 1.0);
  const auto jittered = static_cast<sim::Duration>(
      static_cast<double>(pending.backoff) * factor);
  return std::max<sim::Duration>(jittered, sim::kMicrosecond);
}

void FleetDriver::finish_with_fallback(std::uint64_t id) {
  Pending* pending = lookup(id);
  if (pending == nullptr) return;
  const std::uint32_t s = pending->session;
  TopologyClass& cls = classes_[class_of_[s]];
  Outcome outcome;
  if ((flags_[s] & kFlagHasArtifact) != 0 && cls.artifact_valid &&
      cls.artifact.feasible) {
    // Rung 1: the last backend-synthesized artifact, served stale.
    flags_[s] |= kFlagStaleUsed;
    ++stale_served_;
    outcome.source = BackendOutcome::Source::kCache;
    outcome.ok = true;
  } else if (config_.client.local_fallback &&
             admission_.admit({}, cls.tasks).admitted) {
    // Rung 2: ECU-local admission — safe to keep running, no fresh table.
    ++local_admissions_;
    outcome.source = BackendOutcome::Source::kLocalFallback;
    outcome.ok = true;
  } else {
    // Rung 3: nothing worked; the caller degrades and retries later.
    ++exhausted_;
  }
  finish(id, outcome);
}

void FleetDriver::finish(std::uint64_t id, const Outcome& outcome) {
  Pending* pending = lookup(id);
  if (pending == nullptr) return;
  const std::uint32_t s = pending->session;
  const std::uint8_t kind = pending->kind;
  const sim::Time issued = pending->issued;
  free_pending(id);
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
  on_recovery_outcome(s, outcome);
}

// --- Fleet behaviour ---------------------------------------------------------

void FleetDriver::issue_ota(std::uint32_t s) {
  // A vehicle mid-recovery doesn't pile routine work onto the backend.
  if (state_of(s) != SessionState::kNominal) return;
  begin_request(s, kKindOta);
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
  begin_request(s, kKindRecovery);
}

void FleetDriver::on_recovery_outcome(std::uint32_t s,
                                      const Outcome& outcome) {
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
  ++lat_count_;
  lat_sum_ += static_cast<std::uint64_t>(latency);
  lat_max_ = std::max(lat_max_, latency);
  ++lat_hist_[std::min(latency_bucket(latency), kLatencyBuckets - 1)];
  if (config_.record_latencies) latencies_.push_back(latency);
}

double FleetDriver::latency_quantile_ms(double q) const {
  if (lat_count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t target = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(q * static_cast<double>(lat_count_) + 0.5),
      1);
  std::uint64_t cumulative = 0;
  for (std::size_t idx = 0; idx < kLatencyBuckets; ++idx) {
    cumulative += lat_hist_[idx];
    if (cumulative < target) continue;
    // Bucket midpoint in ns: bucket idx covers [2^m*(4+s)/4, 2^m*(5+s)/4).
    const std::uint64_t msb = idx / 4;
    const std::uint64_t sub = idx % 4;
    const double lo =
        static_cast<double>((1ull << msb) * (4 + sub)) / 4.0;
    const double hi =
        static_cast<double>((1ull << msb) * (5 + sub)) / 4.0;
    return (lo + hi) / 2.0 / 1e6;
  }
  return static_cast<double>(lat_max_) / 1e6;
}

std::uint64_t FleetDriver::fingerprint() const {
  std::uint64_t hash = kFnvOffset;
  hash = fnv_mix(hash, static_cast<std::uint64_t>(unsafe_now_));
  hash = fnv_mix(hash, static_cast<std::uint64_t>(peak_unsafe_));
  hash = fnv_mix(hash, static_cast<std::uint64_t>(max_unsafe_duration_));
  hash = fnv_mix(hash, static_cast<std::uint64_t>(degraded_now_));
  hash = fnv_mix(hash, static_cast<std::uint64_t>(last_recovery_done_));
  hash = fnv_mix(hash, ota_completed_);
  hash = fnv_mix(hash, ota_deferred_);
  hash = fnv_mix(hash, recoveries_completed_);
  hash = fnv_mix(hash, fallback_cache_);
  hash = fnv_mix(hash, fallback_local_);
  hash = fnv_mix(hash, fallback_none_);
  hash = fnv_mix(hash, attempts_);
  hash = fnv_mix(hash, timeouts_);
  hash = fnv_mix(hash, breaker_opens_);
  hash = fnv_mix(hash, breaker_fast_fails_);
  hash = fnv_mix(hash, stale_served_);
  hash = fnv_mix(hash, local_admissions_);
  hash = fnv_mix(hash, revalidated_);
  hash = fnv_mix(hash, exhausted_);
  hash = fnv_mix(hash, failovers_);
  hash = fnv_mix(hash, lat_count_);
  hash = fnv_mix(hash, lat_sum_);
  hash = fnv_mix(hash, static_cast<std::uint64_t>(lat_max_));
  for (const std::uint64_t bucket : lat_hist_) hash = fnv_mix(hash, bucket);
  hash = fnv_mix(hash, static_cast<std::uint64_t>(latencies_.size()));
  for (const sim::Duration latency : latencies_) {
    hash = fnv_mix(hash, static_cast<std::uint64_t>(latency));
  }
  const std::size_t n = state_.size();
  for (std::size_t i = 0; i < n; ++i) {
    hash = fnv_mix(hash, static_cast<std::uint64_t>(state_[i]) |
                             static_cast<std::uint64_t>(flags_[i]) << 8 |
                             static_cast<std::uint64_t>(breaker_[i]) << 16 |
                             static_cast<std::uint64_t>(jitter_draws_[i])
                                 << 32);
    hash = fnv_mix(hash, class_of_[i]);
    hash = fnv_mix(hash, static_cast<std::uint64_t>(open_until_[i]));
    hash = fnv_mix(hash, static_cast<std::uint64_t>(unsafe_since_[i]));
    hash = fnv_mix(hash, static_cast<std::uint64_t>(recovery_issued_[i]));
  }
  for (const FleetScheduleService* service : services_) {
    hash = fnv_mix(hash, service->fingerprint());
  }
  return hash;
}

}  // namespace dynaplat::backend
