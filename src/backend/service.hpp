// Fleet-facing schedule backend (paper Sec. 2.3 / 4.1).
//
// The paper's central bet is that schedule synthesis, DSE and update
// mastering run *off-vehicle*. dse::ScheduleServer is the synthesis engine;
// this wrapper turns it into a *service*: N concurrent vehicle sessions talk
// to one backend over an explicit request/response queue modeled entirely in
// simulated time, so a fleet stampede is a reproducible scenario rather
// than a host-load artifact.
//
// Robustness machinery (ISSUE 9):
//   * Admission control and a bounded request queue. When the queue
//     saturates, requests are shed by criticality: routine OTA
//     resynthesis (kOta) goes first, schedule resyncs (kResync) second,
//     recovery remaps (kRecovery) last. A recovery request arriving at a
//     full queue preempts the most recently accepted, not-yet-started
//     routine request instead of being turned away.
//   * Backpressure: above the watermark, routine requests are deferred
//     with an explicit retry-after hint scaled by queue depth, so the
//     fleet's retries spread out instead of hammering a saturated queue.
//   * A sharded cross-vehicle memo cache keyed by TaskSet::key(): two
//     vehicles with the same task topology and ECU speed share one
//     synthesis. This is the DSE memo-cache shape (DESIGN.md §6) applied
//     fleet-wide — the cache is what turns 10k sessions into ~dozens of
//     real synthesis runs.
//   * By-handle request path: a request carries its interned TaskSet, a
//     response the cache's shared ArtifactHandle, and callbacks live
//     inline in pooled request slots, so a steady-state request allocates
//     nothing.
//   * Seed-deterministic failure modes injectable by fault::FaultCampaign:
//     backend crash/restart (outstanding work lost), uplink partition
//     (requests and responses silently dropped — vehicles see timeouts),
//     and slow-responder latency spikes (service-time multiplier).
//
// Everything is driven by the owning scenario's sim::Simulator, consumes no
// fresh randomness, and is therefore bit-reproducible under
// sim::ScenarioSweep at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dse/admission.hpp"
#include "obs/coverage.hpp"
#include "obs/metrics.hpp"
#include "sim/inline_function.hpp"
#include "sim/simulator.hpp"

namespace dynaplat::backend {

/// Request priority classes, most critical first. Shedding walks the enum
/// from the back (routine OTA work is dropped before recovery remaps).
enum class Criticality : std::uint8_t {
  kRecovery = 0,  ///< recovery-remap synthesis (vehicle lost an ECU)
  kResync = 1,    ///< TT-table resynchronization (app start/stop)
  kOta = 2,       ///< routine OTA update mastering / resynthesis
};

const char* to_string(Criticality criticality);

enum class ResponseStatus : std::uint8_t {
  kOk,           ///< artifact attached (feasible or not is in the artifact)
  kInfeasible,   ///< synthesis ran and proved the task set unschedulable
  kShed,         ///< load-shed: queue full, request dropped by criticality
  kRetryAfter,   ///< backpressure: come back after retry_after
  kUnreachable,  ///< control-plane only: backend crashed / uplink down
};

const char* to_string(ResponseStatus status);

/// Shared, immutable synthesis artifact. The memo cache, every member of a
/// cohort and the vehicles' artifact caches hold the same object.
using ArtifactHandle = std::shared_ptr<const dse::ScheduleServer::Artifact>;

/// One ECU's analysis task set, immutable, with everything the backend
/// derives from it computed once at construction: the cross-vehicle cache
/// key, the secondary collision signature and the ECU-local admission
/// verdict. Requests carry it by shared handle, so a fleet driver interns
/// one per topology class and a stampede neither copies nor re-hashes a
/// task set per request.
class TaskSet {
 public:
  /// Two vehicles whose app set compiles to the same analysis tasks on the
  /// same ECU speed get the same key() and share one synthesis.
  TaskSet(std::vector<dse::AnalysisTask> tasks, std::uint64_t ecu_mips);
  /// Same, with the cache key forced to `key` (collision tests).
  TaskSet(std::vector<dse::AnalysisTask> tasks, std::uint64_t ecu_mips,
          std::uint64_t key);

  const std::vector<dse::AnalysisTask>& tasks() const { return tasks_; }
  std::uint64_t ecu_mips() const { return ecu_mips_; }
  /// Cross-vehicle memo-cache and cohort key (FNV-1a over the task fields
  /// and ECU speed, unless forced).
  std::uint64_t key() const { return key_; }
  /// Secondary hash of the same fields from an independent basis; a key
  /// match with a signature mismatch is a detected collision.
  std::uint64_t sig() const { return sig_; }
  /// dse::admit({}, tasks).admitted: the verdict of the client's ECU-local
  /// fallback rung.
  bool locally_admitted() const { return locally_admitted_; }

 private:
  std::vector<dse::AnalysisTask> tasks_;
  std::uint64_t ecu_mips_;
  std::uint64_t key_;
  std::uint64_t sig_;
  bool locally_admitted_;
};

struct SynthesisRequest {
  std::shared_ptr<const TaskSet> task_set;
  Criticality criticality = Criticality::kResync;
  /// Vehicle session tag (metrics / tracing only, not part of the cache
  /// key — the whole point is cross-vehicle sharing).
  std::uint32_t session = 0;
};

/// Packed into 32 bytes (handle first, flags last): the service's delivery
/// event captures one beside `this` and an entry id and must stay within
/// sim::InlineFunction's inline capacity.
struct SynthesisResponse {
  /// The memo cache's artifact (feasible or not) for kOk / kInfeasible;
  /// null for every other status.
  ArtifactHandle artifact;
  /// Backpressure hint: earliest useful re-submission delay (kShed /
  /// kRetryAfter).
  sim::Duration retry_after = 0;
  ResponseStatus status = ResponseStatus::kUnreachable;
  bool cache_hit = false;
};
static_assert(sizeof(SynthesisResponse) <= 32);

struct ServiceConfig {
  /// Outstanding (accepted, not yet responded) request cap. Beyond it,
  /// requests are shed by criticality.
  std::size_t queue_capacity = 256;
  /// Above this depth routine (kOta) requests get kRetryAfter instead of
  /// queue slots.
  std::size_t backpressure_watermark = 192;
  /// Extra slots only recovery requests may use when the queue is full and
  /// no routine victim is preemptible.
  std::size_t recovery_reserve = 32;
  /// Parallel synthesis workers (queueing model: per-worker next-free
  /// time; a request is served by the earliest-free worker).
  std::size_t workers = 8;
  /// Service-time floor (cache hits, admission bookkeeping).
  sim::Duration min_service_time = 200 * sim::kMicrosecond;
  /// Cross-vehicle memo cache: shard count and total entry capacity
  /// (drop-oldest per shard beyond capacity / shards).
  std::size_t cache_shards = 16;
  std::size_t cache_capacity = 4'096;
  /// A backend crash also loses the memo cache (cold restart). Default
  /// keeps it: the cache models a persistent artifact store.
  bool crash_clears_cache = false;
  /// Coalesce same-topology requests into cohorts: a request whose
  /// topology key matches a cohort still waiting for service joins it —
  /// no extra admission weight, no extra worker dequeue — and every
  /// member shares the one response at delivery. Admission, queue depth
  /// and shedding are then accounted per cohort, not per request (a
  /// stampede of identical vehicles costs one queue slot).
  bool batching = false;
};

class FleetScheduleService {
 public:
  /// Stored inline in the request's slot: captures up to
  /// sim::BasicInlineFunction's inline capacity never allocate.
  using Callback = sim::BasicInlineFunction<void(const SynthesisResponse&)>;

  /// Round-trip vehicle <-> backend latency (half on submit, half on the
  /// response).
  static constexpr sim::Duration kUplinkRtt = 10 * sim::kMillisecond;

  explicit FleetScheduleService(sim::Simulator& simulator,
                                ServiceConfig config = {});
  ~FleetScheduleService();
  FleetScheduleService(const FleetScheduleService&) = delete;
  FleetScheduleService& operator=(const FleetScheduleService&) = delete;

  /// Asynchronous request/response: the response is delivered through the
  /// simulator after queueing + service + uplink time. While the backend
  /// is crashed or the uplink partitioned the request is silently lost —
  /// the vehicle-side timeout is the only signal, as in the field.
  void submit(const SynthesisRequest& request, Callback done);

  /// Synchronous control-plane query used by in-vehicle callers that
  /// cannot park their control flow on a sim event (node resync, recovery
  /// planning). Runs the same admission / shedding / cache logic but
  /// charges no queueing latency; returns kUnreachable when the backend
  /// is down so the caller's circuit breaker can react.
  SynthesisResponse query(const SynthesisRequest& request);

  // --- Failure injection (fault::FaultCampaign backend events) --------------
  /// Backend process crash: every outstanding request is lost (clients
  /// time out), workers reset. Idempotent.
  void crash();
  /// Restart after a crash. The memo cache survives unless
  /// crash_clears_cache.
  void restart();
  bool crashed() const { return crashed_; }
  /// Uplink partition: submissions are lost and in-flight responses are
  /// dropped at delivery time.
  void set_partitioned(bool partitioned);
  bool partitioned() const { return partitioned_; }
  /// Slow-responder spike: multiplies the service time of requests
  /// accepted while active (1.0 = nominal).
  void set_slow_factor(double factor) {
    slow_factor_ = factor < 1.0 ? 1.0 : factor;
  }
  double slow_factor() const { return slow_factor_; }

  /// Campaign target name (FaultCampaign events address it by this).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- Observability --------------------------------------------------------
  void set_metrics(obs::MetricsRegistry* metrics, const std::string& prefix);
  void set_coverage(obs::CoverageMap* coverage);

  // --- Introspection (deterministic reads; test + invariant surface) --------
  /// Admitted work not yet responded. Rejection notices in flight on the
  /// downlink are excluded: they hold no worker reservation, and counting
  /// them toward admission depth would let an overload sustain itself on
  /// its own reject traffic.
  std::size_t queue_depth() const { return queued_; }
  std::size_t max_queue_depth() const { return max_queue_depth_; }
  std::uint64_t requests_total() const { return requests_total_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t shed_total() const { return shed_total_; }
  std::uint64_t shed(Criticality criticality) const {
    return shed_[static_cast<std::size_t>(criticality)];
  }
  std::uint64_t backpressured() const { return backpressured_; }
  std::uint64_t preempted() const { return preempted_; }
  std::uint64_t lost_unreachable() const { return lost_unreachable_; }
  std::uint64_t responses_dropped() const { return responses_dropped_; }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }
  std::size_t cache_entries() const;
  std::uint64_t synthesis_runs() const { return synthesis_runs_; }
  std::uint64_t crashes() const { return crashes_; }
  /// Worker dequeues: service starts charged against the worker pool. In
  /// serial mode every admitted request is its own dequeue; with batching
  /// a whole cohort rides one. The batched-vs-serial efficiency gate in
  /// bench_fleet compares exactly this counter at equal served counts.
  std::uint64_t dequeues() const { return dequeues_; }
  /// Cohorts admitted in batched mode (== dequeues while batching).
  std::uint64_t batches() const { return batches_; }
  /// Requests that joined an existing cohort instead of taking a slot.
  std::uint64_t coalesced() const { return coalesced_; }
  /// Cohort sizes at close, log2-bucketed: bucket b counts cohorts of
  /// size in (2^(b-1), 2^b] (bucket 0 = singletons).
  const std::array<std::uint64_t, 16>& batch_size_histogram() const {
    return batch_hist_;
  }
  /// topology_key collisions caught by the secondary signature check: the
  /// cached artifact belonged to a *different* task set that hashed to the
  /// same key, so the hit was refused and synthesis re-ran.
  std::uint64_t cache_collisions() const { return cache_collisions_; }
  /// Memo-cache entries dropped by per-shard capacity (drop-oldest).
  std::uint64_t cache_evictions() const { return cache_evictions_; }

  /// FNV-1a over the service counters — folded into fleet fingerprints for
  /// the sweep determinism gates.
  std::uint64_t fingerprint() const;

  const ServiceConfig& config() const { return config_; }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// One slot of the outstanding-request slab: an admitted cohort (leader
  /// plus joiners) or a rejection verdict riding the downlink. Ids are
  /// (slot + 1) << 32 | generation, so a stale id looks up nothing.
  struct Outstanding {
    /// Every caller of the entry, chained through members_ in arrival
    /// order: the leader, then cohort members coalesced onto it, who share
    /// its slot, reservation and response.
    std::uint32_t first_member = kNone;
    std::uint32_t last_member = kNone;
    std::uint32_t members = 0;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNone;
    std::uint32_t worker = 0;
    /// Most critical member of the cohort (joiners upgrade it, so a
    /// cohort carrying a recovery request is never a preemption victim).
    Criticality criticality = Criticality::kOta;
    bool in_use = false;
    /// true: holds a queue slot + worker reservation; false: a shed /
    /// backpressure verdict riding the downlink (no admission weight).
    bool admitted = false;
    /// true while registered in open_cohorts_ (batched, joinable).
    bool open = false;
    /// Acceptance order: preemption picks the most recent.
    std::uint64_t seq = 0;
    std::uint64_t key = 0;
    sim::Time start = 0;  ///< service start (preemptible while > now)
    sim::EventId completion;
    std::uint64_t last_on_worker_token = 0;
  };
  /// Pooled storage for callers' callbacks.
  struct Member {
    Callback done;
    std::uint32_t next = kNone;
  };
  /// A joinable cohort (batched mode): its key and leader entry id.
  struct OpenCohort {
    std::uint64_t key = 0;
    std::uint64_t id = 0;
  };
  struct CacheEntry {
    ArtifactHandle artifact;
    /// TaskSet::sig() of the task set the artifact was synthesized for; a
    /// key match with a signature mismatch is a detected collision,
    /// served as a miss instead of a wrong artifact.
    std::uint64_t sig = 0;
  };
  struct CacheShard {
    std::map<std::uint64_t, CacheEntry> entries;
    std::deque<std::uint64_t> order;  ///< insertion order, drop-oldest
  };

  /// Admission decision shared by submit() and query(). Returns true when
  /// the request may take a queue slot; fills `reject` otherwise.
  bool admit(Criticality criticality, SynthesisResponse* reject);
  /// Sheds the most recently accepted, not-yet-started routine request
  /// that is still last on its worker (its reservation can be reclaimed
  /// exactly). Returns true when a slot was freed.
  bool preempt_routine();
  /// Cache lookup + synthesis on miss. Returns the artifact and whether it
  /// was a hit; accounts cache metrics and collision/eviction counters.
  ArtifactHandle resolve(const TaskSet& task_set, bool* cache_hit);
  sim::Duration service_time(const dse::ScheduleServer::Artifact& artifact,
                             bool cache_hit) const;
  sim::Duration retry_hint() const;

  // Outstanding slab, member pool and open-cohort table.
  /// Takes a free slot with `done` as its leader; returns its id.
  std::uint64_t acquire(Callback done, Criticality criticality);
  Outstanding* lookup(std::uint64_t id);
  /// Appends a caller's callback to an entry's chain.
  void add_member(Outstanding& cohort, Callback done);
  /// Returns a member chain starting at `member` to the pool.
  void free_members(std::uint32_t member);
  /// Frees a slot and whatever it still holds.
  void release(std::uint32_t slot);
  OpenCohort* find_open(std::uint64_t key);

  /// Delivers `response` to every cohort member and closes the entry.
  /// Returns the member count (0 when the id is stale).
  std::size_t respond(std::uint64_t id, const SynthesisResponse& response);
  /// Drops a closing entry without delivering (partition, crash paths).
  void close_entry(std::uint64_t id);
  void record_batch(std::size_t size);
  void update_depth_gauge();

  sim::Simulator& sim_;
  ServiceConfig config_;
  std::string name_ = "backend";
  dse::ScheduleServer server_;
  std::vector<CacheShard> cache_;
  std::vector<sim::Time> worker_free_;
  /// Monotonic token per worker identifying the *last* reservation made on
  /// it — only that reservation can be reclaimed exactly on preemption.
  std::vector<std::uint64_t> worker_last_token_;
  std::uint64_t next_token_ = 1;
  std::vector<Outstanding> outstanding_;
  std::uint32_t outstanding_free_ = kNone;
  /// Slots in use in outstanding_.
  std::size_t live_entries_ = 0;
  std::vector<Member> members_;
  std::uint32_t member_free_ = kNone;
  /// Joinable cohorts, at most one per key. Each is an admitted entry, so
  /// the table never outgrows the queue capacity plus recovery reserve.
  std::vector<OpenCohort> open_cohorts_;
  /// Admitted entries in outstanding_ (the admission-control depth; a
  /// whole cohort weighs one).
  std::size_t queued_ = 0;
  std::uint64_t next_seq_ = 1;

  bool crashed_ = false;
  bool partitioned_ = false;
  double slow_factor_ = 1.0;

  std::size_t max_queue_depth_ = 0;
  std::uint64_t requests_total_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t shed_total_ = 0;
  std::uint64_t shed_[3] = {0, 0, 0};
  std::uint64_t backpressured_ = 0;
  std::uint64_t preempted_ = 0;
  std::uint64_t lost_unreachable_ = 0;
  std::uint64_t responses_dropped_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t synthesis_runs_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t dequeues_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t cache_collisions_ = 0;
  std::uint64_t cache_evictions_ = 0;
  std::array<std::uint64_t, 16> batch_hist_{};

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* backpressure_counter_ = nullptr;
  obs::Counter* cache_hit_counter_ = nullptr;
  obs::Counter* cache_miss_counter_ = nullptr;
  obs::CoverageMap* coverage_ = nullptr;
  std::uint32_t cov_shed_ = 0;
  std::uint32_t cov_backpressure_ = 0;
  std::uint32_t cov_preempt_ = 0;
  std::uint32_t cov_crash_ = 0;
  std::uint32_t cov_partition_ = 0;
};

}  // namespace dynaplat::backend
