// Vehicle-side backend client: the resilience half of the fleet backend.
//
// The paper puts synthesis off-vehicle (Sec. 2.3/4.1), which makes the
// backend a single point of failure for the whole fleet. BackendClient is
// what lets a vehicle *live without it*: every remote call gets a timeout,
// capped exponential backoff with seeded jitter (no fleet-wide lockstep
// retry storms), and a circuit breaker (CLOSED -> OPEN -> HALF_OPEN) so a
// dead backend costs one probe per open window instead of a timeout per
// call. On backend loss the client degrades gracefully instead of
// stranding its caller:
//
//   1. vehicle-local artifact cache — the last backend-synthesized table
//      for this topology, served stale;
//   2. ECU-local admission (the dse::admit fast path) — cheap
//      utilization + RTA, good enough to *keep running safely* even though
//      it ships no fresh TT table;
//   3. explicit kNone — the caller enters DEGRADED and retries later.
//
// On reconnect (breaker closing) every stale-served cache entry is
// re-validated against the backend *before* state listeners fire, so
// degradation is only lifted once the vehicle is back on fresh artifacts.
//
// The chain itself is backend::ClientEngine run for one session. Jitter
// draw k is draw jitter_stream << 32 | k of the engine's fixed-seed stream
// family — give every client a distinct jitter_stream (e.g. the session
// index) or healed fleets retry in lockstep again.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "backend/client_engine.hpp"
#include "backend/service.hpp"

namespace dynaplat::backend {

class BackendClient : private ClientEngine::Host {
 public:
  using Callback = std::function<void(const BackendOutcome&)>;
  /// (previous, next) breaker transition, fired after any re-validation.
  using Listener = std::function<void(BreakerState, BreakerState)>;

  explicit BackendClient(sim::Simulator& simulator, ClientConfig config = {});
  BackendClient(const BackendClient&) = delete;
  BackendClient& operator=(const BackendClient&) = delete;

  /// Points the client at a fleet service. nullptr disconnects (every
  /// remote call fails fast — fallback rungs still apply).
  void connect(FleetScheduleService* service);
  /// Loopback mode: synthesize directly on an in-process engine with no
  /// failure surface. This is the compatibility default inside
  /// platform::DynamicPlatform, which owns its own dse::ScheduleServer.
  void set_loopback(dse::ScheduleServer* server);

  /// Synchronous facade for in-vehicle control flow (node resync, recovery
  /// planning), building the call's TaskSet from `tasks`: one
  /// control-plane query per call — shed/backpressure
  /// verdicts are not retried inline (the caller's own retry cadence
  /// handles that), comms failures feed the breaker, and the fallback
  /// ladder runs before returning.
  BackendOutcome synthesize(const std::vector<dse::AnalysisTask>& tasks,
                            std::uint64_t ecu_mips,
                            Criticality criticality = Criticality::kResync);

  /// Full async path with sim-time timeout, capped jittered backoff and
  /// breaker accounting. The callback fires exactly once with the final
  /// outcome (backend, cache, local fallback, or kNone).
  void request(SynthesisRequest request, Callback done);

  BreakerState breaker() const { return engine_.breaker(0); }
  void add_listener(Listener listener) {
    listeners_.push_back(std::move(listener));
  }

  void set_metrics(obs::MetricsRegistry* metrics, const std::string& prefix);
  void set_coverage(obs::CoverageMap* coverage);

  // --- Introspection --------------------------------------------------------
  std::uint64_t attempts() const {
    return engine_.attempts() + loopback_attempts_;
  }
  std::uint64_t timeouts() const { return engine_.timeouts(); }
  std::uint64_t breaker_opens() const { return engine_.breaker_opens(); }
  std::uint64_t breaker_fast_fails() const {
    return engine_.breaker_fast_fails();
  }
  std::uint64_t stale_served() const { return engine_.stale_served(); }
  std::uint64_t local_admissions() const { return engine_.local_admissions(); }
  std::uint64_t revalidated() const { return revalidated_; }
  std::uint64_t exhausted() const { return engine_.exhausted(); }
  std::size_t cached_artifacts() const { return cache_.size(); }

  const ClientConfig& config() const { return engine_.config(); }

 private:
  struct CacheEntry {
    ArtifactHandle artifact;
    std::shared_ptr<const TaskSet> task_set;  ///< kept for re-validation
    bool stale_used = false;
    std::uint64_t order = 0;  ///< insertion order, drop-oldest
  };
  /// A request the engine is working on: the stored wire request and the
  /// caller's callback, keyed by the engine tag.
  struct Inflight {
    SynthesisRequest request;
    Callback done;
  };

  // ClientEngine::Host.
  void build_request(std::uint32_t session, std::uint32_t tag,
                     SynthesisRequest& request) override;
  void store_artifact(std::uint32_t session, std::uint32_t tag,
                      const ArtifactHandle& artifact) override;
  const dse::ScheduleServer::Artifact* serve_stale(std::uint32_t session,
                                                   std::uint32_t tag) override;
  void on_breaker(std::uint32_t session, BreakerState prev,
                  BreakerState next) override;
  void on_outcome(std::uint32_t session, std::uint32_t tag, sim::Time issued,
                  const BackendOutcome& outcome,
                  const dse::ScheduleServer::Artifact* artifact) override;

  /// Stores `request` under a fresh tag and hands it to the engine: one
  /// sync query or the async attempt loop.
  void start(SynthesisRequest request, Callback done, bool sync);
  void revalidate_stale();
  void cache_store(std::shared_ptr<const TaskSet> task_set,
                   ArtifactHandle artifact);

  FleetScheduleService* service_ = nullptr;
  dse::ScheduleServer* loopback_ = nullptr;
  std::uint64_t loopback_attempts_ = 0;
  ClientEngine engine_;

  std::map<std::uint64_t, CacheEntry> cache_;
  std::uint64_t next_order_ = 1;

  std::map<std::uint32_t, Inflight> inflight_;
  std::uint32_t next_tag_ = 0;

  std::vector<Listener> listeners_;
  std::uint64_t revalidated_ = 0;

  obs::Gauge* state_gauge_ = nullptr;
  obs::Counter* fallback_counter_ = nullptr;
  obs::CoverageMap* coverage_ = nullptr;
  std::uint32_t cov_open_ = 0;
  std::uint32_t cov_half_open_ = 0;
  std::uint32_t cov_closed_ = 0;
  std::uint32_t cov_stale_ = 0;
  std::uint32_t cov_local_ = 0;
  std::uint32_t cov_exhausted_ = 0;
};

}  // namespace dynaplat::backend
