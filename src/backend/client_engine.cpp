#include "backend/client_engine.hpp"

#include <algorithm>

#include "sim/random.hpp"

namespace dynaplat::backend {

namespace {

// Exponential backoff between attempts: growth per retry and cap (the base
// is ClientConfig::backoff_base).
constexpr double kBackoffFactor = 2.0;
constexpr sim::Duration kMaxBackoff = 800 * sim::kMillisecond;
// Seed of the jitter stream family; sessions differ by stream.
constexpr std::uint64_t kJitterSeed = 0x0DDB10C5ull;

/// What the local-admission rung hands on: a verdict, never a table.
const dse::ScheduleServer::Artifact& no_table() {
  static const dse::ScheduleServer::Artifact empty;
  return empty;
}

}  // namespace

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

const char* to_string(BackendOutcome::Source source) {
  switch (source) {
    case BackendOutcome::Source::kBackend: return "backend";
    case BackendOutcome::Source::kCache: return "cache";
    case BackendOutcome::Source::kLocalFallback: return "local";
    case BackendOutcome::Source::kNone: return "none";
  }
  return "?";
}

ClientEngine::ClientEngine(sim::Simulator& simulator,
                           const ClientConfig& config, Host& host)
    : sim_(simulator), config_(config), host_(host) {
  config_.max_attempts = std::clamp(config_.max_attempts, 1, kMaxAttempts);
  config_.breaker_threshold =
      std::clamp(config_.breaker_threshold, 1, kMaxFailures);
  reset(1);
}

ClientEngine::~ClientEngine() { reset(0); }

void ClientEngine::reset(std::size_t sessions) {
  for (std::size_t idx = 0; idx < pending_.size(); ++idx) {
    if (!pending_[idx].in_use) continue;
    take((static_cast<std::uint64_t>(idx) + 1) << 32 | pending_[idx].gen);
  }
  breaker_.assign(sessions, 0);  // CLOSED, zero consecutive failures
  jitter_draws_.assign(sessions, 0);
  open_until_.assign(sessions, 0);
}

// --- Breaker -------------------------------------------------------------------

void ClientEngine::set_breaker(std::uint32_t s, BreakerState next,
                               int failures) {
  const BreakerState prev = breaker(s);
  breaker_[s] = static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(next) | failures << 2);
  if (next == prev) return;
  if (next == BreakerState::kOpen) {
    open_until_[s] = sim_.now() + config_.breaker_open_for;
    ++breaker_opens_;
  }
  host_.on_breaker(s, prev, next);
}

std::uint32_t ClientEngine::route(std::uint32_t s) {
  if (regions_.empty()) return kNoRegion;
  const std::uint32_t home = home_region(s);
  if (breaker(s) != BreakerState::kOpen) return home;
  if (sim_.now() >= open_until_[s]) {
    // Open window expired: one HALF_OPEN probe goes home.
    set_breaker(s, BreakerState::kHalfOpen, failures(s));
    return home;
  }
  if (regions_.size() > 1) {
    // Home is known-bad: redirect this attempt to the sibling region.
    ++failovers_;
    return static_cast<std::uint32_t>((home + 1) % regions_.size());
  }
  ++breaker_fast_fails_;
  return kNoRegion;
}

bool ClientEngine::settle(std::uint32_t s, std::uint32_t region,
                          const SynthesisResponse& response) {
  // Any answer, shed and backpressure included, proves the backend
  // reachable: the breaker tracks reachability, not load-shedding.
  if (region == home_region(s)) {
    if (response.status == ResponseStatus::kUnreachable) {
      record_failure(s);
    } else {
      set_breaker(s, BreakerState::kClosed, 0);
    }
  }
  return response.status == ResponseStatus::kOk ||
         response.status == ResponseStatus::kInfeasible;
}

void ClientEngine::record_failure(std::uint32_t s) {
  const BreakerState state = breaker(s);
  const int count = std::min(failures(s) + 1, kMaxFailures);
  // A failed HALF_OPEN probe reopens for a fresh hold window.
  const bool open = state == BreakerState::kHalfOpen ||
                    (state == BreakerState::kClosed &&
                     count >= config_.breaker_threshold);
  set_breaker(s, open ? BreakerState::kOpen : state, count);
}

// --- Requests ------------------------------------------------------------------

void ClientEngine::request(std::uint32_t session, std::uint32_t tag) {
  std::uint32_t idx = pending_free_;
  if (idx != kNoFree) {
    pending_free_ = pending_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  const std::uint32_t gen = pending_[idx].gen;
  pending_[idx] = Pending{.session = session,
                          .tag = tag,
                          .gen = gen,
                          .in_use = true,
                          .issued = sim_.now()};
  start_attempt((static_cast<std::uint64_t>(idx) + 1) << 32 | gen);
}

void ClientEngine::query(std::uint32_t session, std::uint32_t tag) {
  const sim::Time issued = sim_.now();
  const std::uint32_t region = route(session);
  if (region == kNoRegion) {
    fall_back(session, tag, issued);
    return;
  }
  ++attempts_;
  SynthesisRequest request;
  host_.build_request(session, tag, request);
  const SynthesisResponse response = regions_[region]->query(request);
  if (settle(session, region, response)) {
    deliver(session, tag, issued, response);
  } else {
    fall_back(session, tag, issued);
  }
}

ClientEngine::Pending* ClientEngine::lookup(std::uint64_t id) {
  const std::uint64_t slot = (id >> 32) - 1;
  if (slot >= pending_.size()) return nullptr;
  Pending& pending = pending_[slot];
  if (!pending.in_use ||
      pending.gen != static_cast<std::uint32_t>(id & 0xFFFFFFFFu)) {
    return nullptr;
  }
  return &pending;
}

ClientEngine::Pending ClientEngine::take(std::uint64_t id) {
  Pending* pending = lookup(id);
  const Pending taken = *pending;
  sim_.cancel(pending->timeout);
  sim_.cancel(pending->resubmit);
  pending->in_use = false;
  ++pending->gen;
  pending->next_free = pending_free_;
  pending_free_ = static_cast<std::uint32_t>((id >> 32) - 1);
  return taken;
}

void ClientEngine::start_attempt(std::uint64_t id) {
  Pending* pending = lookup(id);
  if (pending == nullptr) return;
  pending->resubmit = sim::EventId{};
  const std::uint32_t s = pending->session;
  const std::uint32_t region = route(s);
  // route() may fire a breaker hook, and a hook may start requests that
  // grow the slab: look the slot up again.
  pending = lookup(id);
  if (pending == nullptr) return;
  if (region == kNoRegion) {
    const Pending done = take(id);
    fall_back(s, done.tag, done.issued);
    return;
  }
  ++attempts_;
  ++pending->attempt;
  const std::uint32_t token = ++pending->attempt_token;
  pending->region = static_cast<std::uint8_t>(region);
  SynthesisRequest request;
  host_.build_request(s, pending->tag, request);
  regions_[region]->submit(
      request, [this, id, token](const SynthesisResponse& response) {
        on_response(id, token, response);
      });
  pending->timeout = sim_.schedule_in(config_.request_timeout,
                                      [this, id] { on_timeout(id); });
}

void ClientEngine::on_response(std::uint64_t id, std::uint32_t token,
                               const SynthesisResponse& response) {
  Pending* pending = lookup(id);
  if (pending == nullptr || pending->attempt_token != token) return;
  sim_.cancel(pending->timeout);
  pending->timeout = sim::EventId{};
  if (settle(pending->session, pending->region, response)) {
    const Pending done = take(id);
    deliver(done.session, done.tag, done.issued, response);
    return;
  }
  retry_or_fail(id, response.retry_after);
}

void ClientEngine::on_timeout(std::uint64_t id) {
  Pending* pending = lookup(id);
  if (pending == nullptr) return;
  pending->timeout = sim::EventId{};
  ++timeouts_;
  if (timeout_counter_ != nullptr) timeout_counter_->add();
  ++pending->attempt_token;  // a late response to this attempt is ignored
  const std::uint32_t s = pending->session;
  if (pending->region == home_region(s)) record_failure(s);
  retry_or_fail(id, 0);
}

void ClientEngine::retry_or_fail(std::uint64_t id,
                                 sim::Duration floor_delay) {
  Pending* pending = lookup(id);
  if (pending == nullptr) return;
  // Out of attempts — or the breaker just opened with nowhere to fail over
  // to: degrade now rather than stack more timeouts, the caller's cadence
  // retries later. With a sibling region the retry proceeds and
  // start_attempt redirects it.
  if (pending->attempt >= config_.max_attempts ||
      (breaker(pending->session) == BreakerState::kOpen &&
       regions_.size() <= 1)) {
    const Pending done = take(id);
    fall_back(done.session, done.tag, done.issued);
    return;
  }
  const sim::Duration delay = std::max(next_backoff(*pending), floor_delay);
  pending->resubmit =
      sim_.schedule_in(delay, [this, id] { start_attempt(id); });
}

sim::Duration ClientEngine::next_backoff(Pending& pending) {
  if (pending.backoff == 0) {
    pending.backoff = config_.backoff_base;
  } else {
    pending.backoff = std::min<sim::Duration>(
        static_cast<sim::Duration>(static_cast<double>(pending.backoff) *
                                   kBackoffFactor),
        kMaxBackoff);
  }
  // Stateless draw: (stream, draw#) indexes a pure hash stream.
  const std::uint32_t s = pending.session;
  const std::uint64_t stream =
      (config_.jitter_stream + s) << 32 | jitter_draws_[s]++;
  const double draw = sim::Random::stream(kJitterSeed, stream).uniform01();
  const double factor = 1.0 + config_.jitter * (2.0 * draw - 1.0);
  const auto jittered = static_cast<sim::Duration>(
      static_cast<double>(pending.backoff) * factor);
  return std::max<sim::Duration>(jittered, sim::kMicrosecond);
}

// --- Outcomes ------------------------------------------------------------------

void ClientEngine::deliver(std::uint32_t s, std::uint32_t tag,
                           sim::Time issued,
                           const SynthesisResponse& response) {
  BackendOutcome outcome;
  outcome.source = BackendOutcome::Source::kBackend;
  outcome.status = response.status;
  outcome.cache_hit = response.cache_hit;
  outcome.ok =
      response.status == ResponseStatus::kOk && response.artifact->feasible;
  if (outcome.ok && config_.artifact_cache_capacity > 0) {
    host_.store_artifact(s, tag, response.artifact);
  }
  host_.on_outcome(s, tag, issued, outcome, response.artifact.get());
}

void ClientEngine::fall_back(std::uint32_t s, std::uint32_t tag,
                             sim::Time issued) {
  BackendOutcome outcome;
  if (const dse::ScheduleServer::Artifact* cached = host_.serve_stale(s, tag)) {
    // Rung 1: the last backend-synthesized artifact, served stale.
    ++stale_served_;
    outcome.source = BackendOutcome::Source::kCache;
    outcome.ok = outcome.stale = true;
    outcome.status = ResponseStatus::kOk;
    host_.on_outcome(s, tag, issued, outcome, cached);
    return;
  }
  if (config_.local_fallback) {
    SynthesisRequest request;
    host_.build_request(s, tag, request);
    if (request.task_set->locally_admitted()) {
      // Rung 2: ECU-local admission — safe to keep running, no fresh table.
      ++local_admissions_;
      outcome.source = BackendOutcome::Source::kLocalFallback;
      outcome.ok = outcome.locally_admitted = true;
      outcome.status = ResponseStatus::kOk;
      host_.on_outcome(s, tag, issued, outcome, &no_table());
      return;
    }
  }
  // Rung 3: nothing worked; the caller degrades and retries later.
  ++exhausted_;
  host_.on_outcome(s, tag, issued, outcome, nullptr);
}

}  // namespace dynaplat::backend
