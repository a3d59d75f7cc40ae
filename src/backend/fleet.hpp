// Fleet driver: N simulated vehicle sessions against one or more
// FleetScheduleService regions (experiments E21/E22).
//
// Each session is a vehicle with a deterministic app topology (sessions
// sharing a topology class generate *identical* analysis task sets — the
// cross-vehicle cache's whole reason to exist), a staggered routine OTA
// resync cadence, and a recovery state machine driven by the fault wave:
//
//   kNominal --wave hit--> kUnsafe --fallback ok--> kSafeDegraded
//        ^                    |                          |
//        |                    +----backend artifact------+
//        +---------------- recovered -------------------+
//
// kUnsafe means the vehicle lost an ECU and holds *no* valid remap — the
// state the robustness headline requires to be transient even during a
// full backend outage. kSafeDegraded means a stale cached artifact or the
// ECU-local admission fast path is keeping it safe while it re-submits
// recovery synthesis on a fixed cadence until the backend delivers a
// fresh artifact.
//
// Million-session scaling (DESIGN.md §15): the driver stores sessions as
// structure-of-arrays — 8/16-bit enums and flags, indices instead of
// pointers, per-class TaskSet and artifact handles shared through a
// topology-class table — at ~35 hot bytes per session. The resilience
// chain (per-attempt timeout, capped jittered backoff, circuit breaker,
// stale-cache / local-admission fallback ladder, stale revalidation on
// reconnect) is one backend::ClientEngine for all N sessions, the same
// engine BackendClient runs for one; the driver only supplies the wire
// request and the artifact cache from its class table. Session s draws
// its jitter from stream client.jitter_stream + s. Timers (OTA cadences,
// timeouts, backoff, recovery retry) are plain kernel events, so they
// interleave with the service's deliveries in the kernel's one
// (time, seq) order.
//
// Multi-region: with N services, session i's home region is i % N; the
// engine fails attempts over to the sibling region while the home breaker
// is OPEN (a cold memo cache there re-runs synthesis) and probes home again
// after the open window.
//
// The driver can inject its own backend outage window (crash/restart or
// uplink partition, hitting region 0) so the bench and tests don't need
// fault::FaultCampaign; campaigns can still target the service directly.
//
// Determinism: everything derives from FleetConfig::seed through
// sim::Random::stream — a FleetDriver run is a pure function of its
// config and is swept bit-identically by sim::ScenarioSweep.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "backend/client_engine.hpp"
#include "backend/service.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace dynaplat::backend {

/// FleetDriver::fingerprint() folds latency counts at quarter-octave
/// resolution (4 buckets per power of two), the layout its pinned goldens
/// were captured with. Derives them from an integer-fed histogram.
inline constexpr std::size_t kQuarterOctaves = 256;
std::array<std::uint64_t, kQuarterOctaves> quarter_octave_counts(
    const obs::Histogram& latency);

struct FleetConfig {
  std::size_t sessions = 1'000;
  /// Distinct task-set shapes; sessions i and i + topology_classes share a
  /// cache key.
  std::size_t topology_classes = 32;
  std::uint64_t seed = 1;
  sim::Duration horizon = 20 * sim::kSecond;
  /// Per-session routine OTA resync period (start staggered across the
  /// fleet so nominal load is smooth).
  sim::Duration ota_period = 2 * sim::kSecond;
  /// Quantize the per-session OTA phase onto this grid (0 = exact i·P/N
  /// stagger). Shared phase instants are what hand the service's request
  /// batcher its cohorts.
  sim::Duration ota_phase_grid = 0;
  /// Fault wave: at wave_at, wave_fraction of the fleet loses an ECU,
  /// spread over wave_stagger — the stampede.
  sim::Duration wave_at = 5 * sim::kSecond;
  double wave_fraction = 0.5;
  sim::Duration wave_stagger = 500 * sim::kMillisecond;
  /// Degraded sessions re-submit recovery synthesis on this cadence until
  /// the backend delivers a fresh artifact.
  sim::Duration recovery_retry = 250 * sim::kMillisecond;
  /// Vehicle-side resilience knobs (timeout/backoff/breaker/fallback);
  /// session s draws its retry jitter from stream jitter_stream + s.
  ClientConfig client;
  /// Fraction of sessions whose task set drifts from its class (a
  /// per-vehicle mutation): each drifted vehicle becomes its own
  /// singleton topology class, fragmenting the memo-cache key space.
  double topology_drift_fraction = 0.0;
  /// Driver-injected backend outage window (0 = none; hits region 0).
  sim::Duration outage_at = 0;
  sim::Duration outage_duration = 0;
  /// true: uplink partition; false: backend crash + restart.
  bool outage_is_partition = false;
  /// After the horizon the OTA cadence stops and the run continues this
  /// much longer so in-flight requests settle — end-of-run invariants
  /// (backend drained, recoveries complete) read a quiescent system.
  sim::Duration drain_grace = 2 * sim::kSecond;
  /// Keep the exact per-request latency vector (order-sensitive, folded
  /// into the fingerprint). Disable at 1M sessions; the latency histogram
  /// still feeds quantiles either way.
  bool record_latencies = true;
};

class FleetDriver : private ClientEngine::Host {
 public:
  FleetDriver(sim::Simulator& simulator, FleetScheduleService& service,
              FleetConfig config);
  /// Multi-region: session i's home is services[i % services.size()].
  FleetDriver(sim::Simulator& simulator,
              std::vector<FleetScheduleService*> services, FleetConfig config);
  ~FleetDriver();
  FleetDriver(const FleetDriver&) = delete;
  FleetDriver& operator=(const FleetDriver&) = delete;

  /// Builds the fleet, schedules OTA cadences / fault wave / outage, and
  /// runs the simulator to the horizon. Re-runnable: a run first cancels
  /// every timer an earlier run left queued.
  void run();

  // --- Robustness surface (invariants + bench read these) -------------------
  /// Sessions currently in kUnsafe (no valid remap in hand).
  std::size_t unsafe_now() const { return unsafe_now_; }
  /// High-water mark of simultaneous kUnsafe sessions.
  std::size_t peak_unsafe() const { return peak_unsafe_; }
  /// Longest single unsafe window any session experienced (ns). The
  /// zero-stranded invariant bounds this, not peak_unsafe: fallback makes
  /// unsafety *transient* even while the backend is down.
  sim::Duration max_unsafe_duration() const { return max_unsafe_duration_; }
  /// Sessions still re-submitting recovery synthesis (safe but degraded).
  std::size_t recoveries_outstanding() const { return degraded_now_; }
  /// Completion time of the last recovery that finished (0 = none).
  sim::Time last_recovery_completed() const { return last_recovery_done_; }
  /// When the driver-injected outage healed (0 = no outage configured).
  sim::Time heal_time() const { return heal_time_; }

  // --- Load / latency surface -----------------------------------------------
  std::uint64_t ota_completed() const { return ota_completed_; }
  std::uint64_t ota_deferred() const { return ota_deferred_; }
  std::uint64_t recoveries_completed() const { return recoveries_completed_; }
  std::uint64_t fallback_cache() const { return fallback_cache_; }
  std::uint64_t fallback_local() const { return fallback_local_; }
  std::uint64_t fallback_none() const { return fallback_none_; }
  /// End-to-end sim-time latency of every backend-served request
  /// (first submission -> final outcome), in scheduling order. Empty when
  /// FleetConfig::record_latencies is off (use the quantile surface).
  const std::vector<sim::Duration>& latencies() const { return latencies_; }
  /// Requests measured into the latency histogram (always maintained).
  std::uint64_t latency_count() const { return latency_.count(); }
  /// Nearest-rank quantile, q in [0, 1], in milliseconds: within 3.1% of
  /// the exact latency (obs::Histogram resolution).
  double latency_quantile_ms(double q) const {
    return latency_.percentile(q * 100.0) / 1e6;
  }

  // --- Client-engine surface -----------------------------------------------
  std::uint64_t client_timeouts() const { return engine_.timeouts(); }
  std::uint64_t client_breaker_opens() const { return engine_.breaker_opens(); }
  std::uint64_t attempts() const { return engine_.attempts(); }
  std::uint64_t breaker_fast_fails() const {
    return engine_.breaker_fast_fails();
  }
  std::uint64_t stale_served() const { return engine_.stale_served(); }
  std::uint64_t local_admissions() const { return engine_.local_admissions(); }
  std::uint64_t revalidated() const { return revalidated_; }
  /// Attempts redirected to a sibling region while home was OPEN.
  std::uint64_t failovers() const { return engine_.failovers(); }
  std::size_t regions() const { return services_.size(); }
  /// Topology classes actually built (base classes + drifted singletons).
  std::size_t topology_class_count() const { return classes_.size(); }
  /// Bytes of per-session array state (the SoA compression target).
  static constexpr std::size_t hot_bytes_per_session() {
    return sizeof(std::uint8_t) * 3 +   // state, flags, breaker
           sizeof(std::uint32_t) * 2 +  // class index, jitter draw count
           sizeof(sim::Time) * 3;       // open_until, unsafe_since, issued
  }

  /// FNV-1a over driver counters, the latency record, every per-session
  /// state array and each region's service fingerprint: the sweep
  /// determinism gate and the pinned golden compare this across runs.
  std::uint64_t fingerprint() const;

  const FleetConfig& config() const { return config_; }

  /// Task set of base topology class `topology` under `seed`: the
  /// generator the driver builds its class table from.
  static std::vector<dse::AnalysisTask> make_tasks(std::uint64_t seed,
                                                   std::size_t topology);

 private:
  enum class SessionState : std::uint8_t {
    kNominal,
    kUnsafe,        ///< ECU lost, no valid remap — must be transient
    kSafeDegraded,  ///< running on stale/local artifact, recovery pending
  };
  // flags_ bits.
  static constexpr std::uint8_t kFlagRecoveryInflight = 1u << 0;
  static constexpr std::uint8_t kFlagHasArtifact = 1u << 1;
  static constexpr std::uint8_t kFlagStaleUsed = 1u << 2;
  // Engine tags: what a request is for.
  static constexpr std::uint32_t kKindOta = 0;
  static constexpr std::uint32_t kKindRecovery = 1;

  struct TopologyClass {
    /// Interned once per class: every request of the class carries this
    /// handle, key and local-admission verdict included.
    std::shared_ptr<const TaskSet> task_set;
    /// Vehicle-local artifact cache, compressed: the artifact is identical
    /// for every vehicle of the class, so one handle is kept here;
    /// per-session kFlagHasArtifact says whether *this* vehicle holds it,
    /// kFlagStaleUsed whether it served it stale.
    ArtifactHandle artifact;
  };

  void build_classes();
  void reset_sessions();
  /// Cancels a timer (a no-op for a fired or empty one) and clears it.
  void cancel_timer(sim::EventId& timer);
  /// Cancels every kernel event the driver has queued.
  void cancel_timers();

  SessionState state_of(std::uint32_t s) const {
    return static_cast<SessionState>(state_[s]);
  }

  // ClientEngine::Host: the class table is the wire request and the
  // artifact cache.
  void build_request(std::uint32_t s, std::uint32_t kind,
                     SynthesisRequest& request) override;
  void store_artifact(std::uint32_t s, std::uint32_t kind,
                      const ArtifactHandle& artifact) override;
  const dse::ScheduleServer::Artifact* serve_stale(std::uint32_t s,
                                                   std::uint32_t kind) override;
  void on_breaker(std::uint32_t s, BreakerState prev,
                  BreakerState next) override;
  void on_outcome(std::uint32_t s, std::uint32_t kind, sim::Time issued,
                  const BackendOutcome& outcome,
                  const dse::ScheduleServer::Artifact* artifact) override;
  void revalidate_stale(std::uint32_t s);

  // Fleet behaviour.
  void issue_ota(std::uint32_t s);
  void hit_with_wave(std::uint32_t s);
  void issue_recovery(std::uint32_t s);
  void mark_safe(std::uint32_t s, bool recovered);
  void record_latency(sim::Duration latency);

  sim::Simulator& sim_;
  std::vector<FleetScheduleService*> services_;
  FleetConfig config_;

  std::vector<TopologyClass> classes_;

  // --- Per-session SoA state (hot_bytes_per_session() total) ---------------
  std::vector<std::uint8_t> state_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> class_of_;
  std::vector<sim::Time> unsafe_since_;
  std::vector<sim::Time> recovery_issued_;

  /// Breaker, backoff, retries and the fallback ladder for every session.
  ClientEngine engine_;

  // Every kernel event the driver queues is held here or in the engine, so
  // a re-run or the destructor can cancel it before the state it captures
  // goes away.
  std::vector<sim::EventId> ota_timers_;
  /// Per session: its pending wave hit or recovery retry (never both).
  std::vector<sim::EventId> wake_;
  /// Driver-injected outage: start and heal.
  std::array<sim::EventId, 2> outage_events_{};

  std::size_t unsafe_now_ = 0;
  std::size_t peak_unsafe_ = 0;
  sim::Duration max_unsafe_duration_ = 0;
  std::size_t degraded_now_ = 0;
  sim::Time last_recovery_done_ = 0;
  sim::Time heal_time_ = 0;

  std::uint64_t ota_completed_ = 0;
  std::uint64_t ota_deferred_ = 0;
  std::uint64_t recoveries_completed_ = 0;
  std::uint64_t fallback_cache_ = 0;
  std::uint64_t fallback_local_ = 0;
  std::uint64_t fallback_none_ = 0;
  std::uint64_t revalidated_ = 0;

  // Latency record: the histogram always; the exact vector only when
  // config_.record_latencies.
  obs::Histogram latency_;
  std::vector<sim::Duration> latencies_;
};

}  // namespace dynaplat::backend
