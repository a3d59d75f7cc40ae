// Client resilience engine: the vehicle side of the fleet backend, once.
//
// A remote synthesis call runs one chain: per-attempt timeout, capped
// exponential backoff with seeded jitter, a circuit breaker (CLOSED ->
// OPEN -> HALF_OPEN) and, when the backend cannot deliver, the fallback
// ladder (stale cached artifact, ECU-local admission, explicit kNone).
// ClientEngine runs it for N sessions: BackendClient for one vehicle,
// FleetDriver for a fleet. The owner's Host hooks build the wire request,
// keep the artifact cache and react to breaker transitions.
//
// Per session it keeps a packed breaker byte (state + kFailureBits
// consecutive failures), the open-window end and a jitter draw count.
// In-flight requests share a generation-checked slab, so callbacks capture
// (slot, generation) ids, never pointers. Jitter draw k of session s is
// draw (jitter_stream + s) << 32 | k of one fixed-seed stream family.
//
// Regions: session s's home is s % N. Only home results feed the home
// breaker; while it is OPEN, attempts fail over to (home + 1) % N and the
// HALF_OPEN probe goes home. With one region an OPEN breaker fast-fails
// into the ladder; with none, every request goes straight down it.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/service.hpp"

namespace dynaplat::backend {

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

const char* to_string(BreakerState state);

struct ClientConfig {
  /// Async request timeout (per attempt).
  sim::Duration request_timeout = 100 * sim::kMillisecond;
  /// Total attempts per request (first try + retries), clamped into
  /// [1, ClientEngine::kMaxAttempts].
  int max_attempts = 4;
  /// First backoff between attempts; each retry doubles it, up to 800 ms.
  sim::Duration backoff_base = 50 * sim::kMillisecond;
  /// Symmetric jitter fraction applied to every backoff delay (0.2 = +/-20%).
  double jitter = 0.2;
  /// Jitter streams: session s draws from jitter_stream + s (see
  /// ClientEngine).
  std::uint64_t jitter_stream = 0;
  /// Consecutive comms failures (timeout / unreachable) that trip the
  /// breaker CLOSED -> OPEN, clamped into [1, ClientEngine::kMaxFailures].
  int breaker_threshold = 3;
  /// OPEN hold time before a HALF_OPEN probe is allowed.
  sim::Duration breaker_open_for = 500 * sim::kMillisecond;
  /// Allow the ECU-local admission fast path as the last fallback rung.
  bool local_fallback = true;
  /// Vehicle-local artifact cache entries (drop-oldest); 0 disables it.
  std::size_t artifact_cache_capacity = 64;
};

struct BackendOutcome {
  enum class Source : std::uint8_t {
    kBackend,        ///< fresh artifact from the backend
    kCache,          ///< vehicle-local cached artifact (stale while down)
    kLocalFallback,  ///< ECU-local admission fast path, no table
    kNone,           ///< nothing worked: caller must degrade and retry
  };
  Source source = Source::kNone;
  /// The caller can proceed safely (feasible artifact or local admission).
  bool ok = false;
  /// Served from the vehicle cache while the backend was unreachable.
  bool stale = false;
  /// ok via dse::admit, no synthesized table attached.
  bool locally_admitted = false;
  /// Backend-side memo-cache hit (reporting only).
  bool cache_hit = false;
  ResponseStatus status = ResponseStatus::kUnreachable;
  dse::ScheduleServer::Artifact artifact;
};

const char* to_string(BackendOutcome::Source source);

class ClientEngine {
 public:
  /// Width of the per-session consecutive-failure count; the count
  /// saturates at kMaxFailures and breaker_threshold is clamped to it.
  static constexpr int kFailureBits = 6;
  static constexpr int kMaxFailures = (1 << kFailureBits) - 1;
  /// Attempts per request are counted in one byte.
  static constexpr int kMaxAttempts = 255;

  /// What an owner supplies. `tag` is the owner's word for the request,
  /// passed to request()/query() and handed back to every hook.
  class Host {
   public:
    /// Fills the wire request for `tag`; the local rung reads the task
    /// set's admission verdict from it.
    virtual void build_request(std::uint32_t session, std::uint32_t tag,
                               SynthesisRequest& request) = 0;
    /// Keeps a fresh feasible artifact in the vehicle-local cache (only
    /// called while artifact_cache_capacity > 0).
    virtual void store_artifact(std::uint32_t session, std::uint32_t tag,
                                const ArtifactHandle& artifact) = 0;
    /// Ladder rung 1: the cached feasible artifact for this request, now
    /// marked as served stale; nullptr when there is none.
    virtual const dse::ScheduleServer::Artifact* serve_stale(
        std::uint32_t session, std::uint32_t tag) = 0;
    /// A breaker transition, after the engine's own bookkeeping. A move to
    /// CLOSED must revalidate stale artifacts before anything else reacts.
    virtual void on_breaker(std::uint32_t session, BreakerState prev,
                            BreakerState next) = 0;
    /// The request ended, issued at `issued`; fires exactly once, possibly
    /// before request() returns. `outcome.artifact` is left empty: the
    /// artifact behind the outcome is `artifact` — the backend's, the
    /// cached one, or for local admission one shared empty artifact (no
    /// table) — and nullptr for kNone.
    virtual void on_outcome(std::uint32_t session, std::uint32_t tag,
                            sim::Time issued, const BackendOutcome& outcome,
                            const dse::ScheduleServer::Artifact* artifact) = 0;

   protected:
    ~Host() = default;
  };

  /// Clamps `config` (see ClientConfig) and sizes the engine to one
  /// disconnected session.
  ClientEngine(sim::Simulator& simulator, const ClientConfig& config,
               Host& host);
  ~ClientEngine();
  ClientEngine(const ClientEngine&) = delete;
  ClientEngine& operator=(const ClientEngine&) = delete;

  /// The regions sessions talk to; empty disconnects.
  void set_regions(std::vector<FleetScheduleService*> regions) {
    regions_ = std::move(regions);
  }
  /// Drops every in-flight request without an outcome (a late response
  /// no-ops) and resets `sessions` sessions to CLOSED. Counters persist.
  void reset(std::size_t sessions);

  /// Async request with per-attempt timeout, jittered backoff, breaker and
  /// failover; ends in Host::on_outcome.
  void request(std::uint32_t session, std::uint32_t tag);
  /// One synchronous control-plane attempt (FleetScheduleService::query):
  /// no timeout and no inline retry — a shed, backpressure or comms
  /// failure goes straight down the ladder. Ends in Host::on_outcome
  /// before returning.
  void query(std::uint32_t session, std::uint32_t tag);

  std::uint32_t home_region(std::uint32_t session) const {
    return regions_.size() <= 1
               ? 0
               : static_cast<std::uint32_t>(session % regions_.size());
  }
  BreakerState breaker(std::uint32_t session) const {
    return static_cast<BreakerState>(breaker_[session] & kStateMask);
  }
  /// Raw per-session state, for fingerprints.
  std::uint8_t packed_breaker(std::uint32_t session) const {
    return breaker_[session];
  }
  std::uint32_t jitter_draws(std::uint32_t session) const {
    return jitter_draws_[session];
  }
  sim::Time open_until(std::uint32_t session) const {
    return open_until_[session];
  }

  /// Counts every timeout into `counter` too (nullptr = none).
  void set_timeout_counter(obs::Counter* counter) { timeout_counter_ = counter; }

  /// The clamped configuration in force.
  const ClientConfig& config() const { return config_; }

  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t breaker_opens() const { return breaker_opens_; }
  std::uint64_t breaker_fast_fails() const { return breaker_fast_fails_; }
  std::uint64_t stale_served() const { return stale_served_; }
  std::uint64_t local_admissions() const { return local_admissions_; }
  std::uint64_t exhausted() const { return exhausted_; }
  /// Attempts redirected to a sibling region while home was OPEN.
  std::uint64_t failovers() const { return failovers_; }

 private:
  static constexpr std::uint8_t kStateMask = 0x03;
  static constexpr std::uint32_t kNoFree = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNoRegion = 0xFFFFFFFFu;

  struct Pending {
    std::uint32_t session = 0;
    std::uint32_t tag = 0;
    std::uint32_t gen = 1;
    /// Bumped per attempt: a response from a timed-out attempt is ignored.
    std::uint32_t attempt_token = 0;
    std::uint32_t next_free = kNoFree;
    std::uint8_t attempt = 0;
    std::uint8_t region = 0;
    bool in_use = false;
    sim::Duration backoff = 0;
    sim::Time issued = 0;
    sim::EventId timeout{};
    sim::EventId resubmit{};
  };

  // Breaker.
  int failures(std::uint32_t s) const { return breaker_[s] >> 2; }
  void set_breaker(std::uint32_t s, BreakerState next, int failures);
  /// Region for the next attempt (firing OPEN -> HALF_OPEN at the end of
  /// the open window), or kNoRegion to fail fast.
  std::uint32_t route(std::uint32_t s);
  /// Breaker accounting for one answer; true when it ends the request.
  bool settle(std::uint32_t s, std::uint32_t region,
              const SynthesisResponse& response);
  void record_failure(std::uint32_t s);

  // Attempt loop.
  Pending* lookup(std::uint64_t id);
  void start_attempt(std::uint64_t id);
  void on_response(std::uint64_t id, std::uint32_t token,
                   const SynthesisResponse& response);
  void on_timeout(std::uint64_t id);
  void retry_or_fail(std::uint64_t id, sim::Duration floor_delay);
  sim::Duration next_backoff(Pending& pending);

  /// Frees a request's slot, returning what it held.
  Pending take(std::uint64_t id);
  /// Backend answered for good: caches a feasible artifact and reports.
  void deliver(std::uint32_t s, std::uint32_t tag, sim::Time issued,
               const SynthesisResponse& response);
  /// The fallback ladder (stale cache, local admission, kNone), reported.
  void fall_back(std::uint32_t s, std::uint32_t tag, sim::Time issued);

  sim::Simulator& sim_;
  ClientConfig config_;
  Host& host_;
  std::vector<FleetScheduleService*> regions_;

  // --- Per-session state ---------------------------------------------------
  /// Low 2 bits breaker state, high kFailureBits consecutive failures.
  std::vector<std::uint8_t> breaker_;
  std::vector<std::uint32_t> jitter_draws_;
  std::vector<sim::Time> open_until_;

  std::vector<Pending> pending_;
  std::uint32_t pending_free_ = kNoFree;

  obs::Counter* timeout_counter_ = nullptr;

  std::uint64_t attempts_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t breaker_opens_ = 0;
  std::uint64_t breaker_fast_fails_ = 0;
  std::uint64_t stale_served_ = 0;
  std::uint64_t local_admissions_ = 0;
  std::uint64_t exhausted_ = 0;
  std::uint64_t failovers_ = 0;
};

}  // namespace dynaplat::backend
