#include "backend/service.hpp"

#include <algorithm>

#include "obs/fnv.hpp"

namespace dynaplat::backend {

namespace {

using obs::fnv1a;

// Backend compute speed, converts Artifact::synthesis_instructions into
// simulated service time.
constexpr std::uint64_t kBackendMips = 200'000;
// Base backpressure hint; the actual hint scales with queue depth.
constexpr sim::Duration kRetryAfterBase = 50 * sim::kMillisecond;

/// Stable hash of (task set, ECU speed): the cross-vehicle cache key.
std::uint64_t topology_key(const std::vector<dse::AnalysisTask>& tasks,
                           std::uint64_t ecu_mips) {
  std::uint64_t hash = obs::kFingerprintOffset;
  hash = fnv1a(hash, &ecu_mips, sizeof(ecu_mips));
  for (const dse::AnalysisTask& task : tasks) {
    hash = fnv1a(hash, task.name.data(), task.name.size());
    hash = fnv1a(hash, &task.period, sizeof(task.period));
    hash = fnv1a(hash, &task.deadline, sizeof(task.deadline));
    hash = fnv1a(hash, &task.wcet, sizeof(task.wcet));
    hash = fnv1a(hash, &task.priority, sizeof(task.priority));
    const std::uint8_t det = task.deterministic ? 1 : 0;
    hash = fnv1a(hash, &det, sizeof(det));
  }
  return hash;
}

/// Secondary topology hash from an independent basis. A primary-key match
/// whose signature disagrees is a detected collision: the cached artifact
/// belongs to a different task set.
std::uint64_t topology_sig(const std::vector<dse::AnalysisTask>& tasks,
                           std::uint64_t ecu_mips) {
  std::uint64_t hash = obs::kFingerprintOffset ^ 0x5DEECE66Dull;
  const std::uint64_t count = tasks.size();
  hash = fnv1a(hash, &count, sizeof(count));
  hash = fnv1a(hash, &ecu_mips, sizeof(ecu_mips));
  for (const dse::AnalysisTask& task : tasks) {
    hash = fnv1a(hash, &task.wcet, sizeof(task.wcet));
    hash = fnv1a(hash, &task.period, sizeof(task.period));
    hash = fnv1a(hash, task.name.data(), task.name.size());
    hash = fnv1a(hash, &task.deadline, sizeof(task.deadline));
    hash = fnv1a(hash, &task.priority, sizeof(task.priority));
    const std::uint8_t det = task.deterministic ? 1 : 0;
    hash = fnv1a(hash, &det, sizeof(det));
  }
  return hash;
}

}  // namespace

TaskSet::TaskSet(std::vector<dse::AnalysisTask> tasks, std::uint64_t ecu_mips)
    : TaskSet(std::move(tasks), ecu_mips, 0) {
  key_ = topology_key(tasks_, ecu_mips_);
}

TaskSet::TaskSet(std::vector<dse::AnalysisTask> tasks, std::uint64_t ecu_mips,
                 std::uint64_t key)
    : tasks_(std::move(tasks)),
      ecu_mips_(ecu_mips),
      key_(key),
      sig_(topology_sig(tasks_, ecu_mips_)),
      locally_admitted_(dse::admit({}, tasks_).admitted) {
}

const char* to_string(Criticality criticality) {
  switch (criticality) {
    case Criticality::kRecovery: return "recovery";
    case Criticality::kResync: return "resync";
    case Criticality::kOta: return "ota";
  }
  return "?";
}

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kInfeasible: return "infeasible";
    case ResponseStatus::kShed: return "shed";
    case ResponseStatus::kRetryAfter: return "retry_after";
    case ResponseStatus::kUnreachable: return "unreachable";
  }
  return "?";
}

FleetScheduleService::FleetScheduleService(sim::Simulator& simulator,
                                           ServiceConfig config)
    : sim_(simulator), config_(config) {
  config_.workers = std::max<std::size_t>(config_.workers, 1);
  config_.cache_shards = std::max<std::size_t>(config_.cache_shards, 1);
  cache_.resize(config_.cache_shards);
  worker_free_.assign(config_.workers, 0);
  worker_last_token_.assign(config_.workers, 0);
}

FleetScheduleService::~FleetScheduleService() {
  for (const Outstanding& out : outstanding_) {
    if (out.in_use) sim_.cancel(out.completion);
  }
}

void FleetScheduleService::set_metrics(obs::MetricsRegistry* metrics,
                                       const std::string& prefix) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    depth_gauge_ = nullptr;
    shed_counter_ = backpressure_counter_ = nullptr;
    cache_hit_counter_ = cache_miss_counter_ = nullptr;
    return;
  }
  depth_gauge_ = &metrics_->gauge(prefix + "queue_depth");
  shed_counter_ = &metrics_->counter(prefix + "shed");
  backpressure_counter_ = &metrics_->counter(prefix + "backpressure");
  cache_hit_counter_ = &metrics_->counter(prefix + "cache.hits");
  cache_miss_counter_ = &metrics_->counter(prefix + "cache.misses");
}

void FleetScheduleService::set_coverage(obs::CoverageMap* coverage) {
  coverage_ = coverage;
  if (coverage_ == nullptr) return;
  cov_shed_ = coverage_->key("backend.shed");
  cov_backpressure_ = coverage_->key("backend.backpressure");
  cov_preempt_ = coverage_->key("backend.preempt_routine");
  cov_crash_ = coverage_->key("backend.crash");
  cov_partition_ = coverage_->key("backend.uplink_partition");
}

void FleetScheduleService::update_depth_gauge() {
  if (depth_gauge_ != nullptr) {
    depth_gauge_->set(static_cast<double>(queued_));
  }
}

sim::Duration FleetScheduleService::retry_hint() const {
  // Scale the hint with saturation: the deeper the queue, the longer the
  // fleet should hold off. Keeps retries from re-stampeding a backend that
  // is already digging out.
  const std::size_t depth = queued_;
  const std::size_t over =
      depth > config_.backpressure_watermark
          ? depth - config_.backpressure_watermark
          : 0;
  return kRetryAfterBase +
         static_cast<sim::Duration>(over) * (kRetryAfterBase / 8);
}

bool FleetScheduleService::preempt_routine() {
  // Victim: the most recently accepted routine (non-recovery) request that
  // has not started service AND is still the last reservation on its
  // worker — only then can its reserved service window be reclaimed
  // exactly (later arrivals would have stacked behind it otherwise).
  const sim::Time now = sim_.now();
  Outstanding* victim = nullptr;
  std::uint32_t victim_slot = 0;
  for (std::uint32_t slot = 0; slot < outstanding_.size(); ++slot) {
    Outstanding& out = outstanding_[slot];
    if (!out.in_use || out.criticality == Criticality::kRecovery) continue;
    if (out.start <= now) continue;  // already in service
    if (worker_last_token_[out.worker] != out.last_on_worker_token) continue;
    if (victim == nullptr || out.seq > victim->seq) {
      victim = &out;
      victim_slot = slot;
    }
  }
  if (victim == nullptr) return false;
  ++preempted_;
  ++shed_total_;
  ++shed_[static_cast<std::size_t>(victim->criticality)];
  if (shed_counter_ != nullptr) shed_counter_->add();
  if (coverage_ != nullptr) coverage_->hit(cov_preempt_);
  worker_free_[victim->worker] = victim->start;
  sim_.cancel(victim->completion);
  SynthesisResponse shed;
  shed.status = ResponseStatus::kShed;
  shed.retry_after = retry_hint();
  respond((static_cast<std::uint64_t>(victim_slot) + 1) << 32 | victim->gen,
          shed);
  return true;
}

bool FleetScheduleService::admit(Criticality criticality,
                                 SynthesisResponse* reject) {
  // Depth counts admitted work only. Rejection verdicts riding the
  // downlink must carry no admission weight, or a saturated backend keeps
  // rejecting on the strength of its own reject traffic long after the
  // real queue has drained (metastable congestion).
  const std::size_t depth = queued_;
  if (depth >= config_.queue_capacity) {
    if (criticality == Criticality::kRecovery) {
      if (preempt_routine()) return true;
      if (depth < config_.queue_capacity + config_.recovery_reserve) {
        return true;
      }
    }
    ++shed_total_;
    ++shed_[static_cast<std::size_t>(criticality)];
    if (shed_counter_ != nullptr) shed_counter_->add();
    if (coverage_ != nullptr) coverage_->hit(cov_shed_);
    reject->status = ResponseStatus::kShed;
    reject->retry_after = retry_hint();
    return false;
  }
  if (depth >= config_.backpressure_watermark &&
      criticality == Criticality::kOta) {
    ++backpressured_;
    if (backpressure_counter_ != nullptr) backpressure_counter_->add();
    if (coverage_ != nullptr) coverage_->hit(cov_backpressure_);
    reject->status = ResponseStatus::kRetryAfter;
    reject->retry_after = retry_hint();
    return false;
  }
  return true;
}

ArtifactHandle FleetScheduleService::resolve(const TaskSet& task_set,
                                             bool* cache_hit) {
  const std::uint64_t key = task_set.key();
  CacheShard& shard = cache_[key % cache_.size()];
  auto it = shard.entries.find(key);
  bool collided = false;
  if (it != shard.entries.end()) {
    if (it->second.sig == task_set.sig()) {
      *cache_hit = true;
      ++cache_hits_;
      if (cache_hit_counter_ != nullptr) cache_hit_counter_->add();
      return it->second.artifact;
    }
    // Same key, different task set: refuse the hit and recompute rather
    // than hand a vehicle another topology's schedule table.
    ++cache_collisions_;
    collided = true;
  }
  *cache_hit = false;
  ++cache_misses_;
  ++synthesis_runs_;
  if (cache_miss_counter_ != nullptr) cache_miss_counter_->add();
  ArtifactHandle artifact =
      std::make_shared<const dse::ScheduleServer::Artifact>(
          server_.synthesize(task_set.tasks(), task_set.ecu_mips()));
  if (collided) {
    // Last-writer-wins on a contested key; the key stays at its original
    // position in the eviction order.
    it->second = CacheEntry{artifact, task_set.sig()};
    return artifact;
  }
  const std::size_t per_shard =
      std::max<std::size_t>(config_.cache_capacity / cache_.size(), 1);
  while (shard.order.size() >= per_shard) {
    shard.entries.erase(shard.order.front());
    shard.order.pop_front();
    ++cache_evictions_;
  }
  shard.entries.emplace(key, CacheEntry{artifact, task_set.sig()});
  shard.order.push_back(key);
  return artifact;
}

sim::Duration FleetScheduleService::service_time(
    const dse::ScheduleServer::Artifact& artifact, bool cache_hit) const {
  if (cache_hit) return config_.min_service_time;
  // instructions / MIPS = microseconds of backend compute.
  const sim::Duration compute = static_cast<sim::Duration>(
      artifact.synthesis_instructions * 1'000ull / kBackendMips);
  return std::max(compute, config_.min_service_time);
}

void FleetScheduleService::submit(const SynthesisRequest& request,
                                  Callback done) {
  ++requests_total_;
  if (crashed_ || partitioned_) {
    // Lost on the wire: the vehicle's timeout is the only signal.
    ++lost_unreachable_;
    return;
  }
  const TaskSet& task_set = *request.task_set;
  const std::uint64_t key = task_set.key();
  if (config_.batching) {
    if (OpenCohort* open = find_open(key)) {
      Outstanding* leader = lookup(open->id);
      if (leader != nullptr && leader->start > sim_.now()) {
        // Same topology, cohort not yet in service: ride the leader's
        // slot. No admission check, no worker dequeue — this is the
        // entire stampede win.
        add_member(*leader, std::move(done));
        leader->criticality =
            std::min(leader->criticality, request.criticality);
        ++coalesced_;
        return;
      }
      // Stale registration (cohort already started): close it to joiners.
      if (leader != nullptr) leader->open = false;
      *open = open_cohorts_.back();
      open_cohorts_.pop_back();
    }
  }
  SynthesisResponse reject;
  if (!admit(request.criticality, &reject)) {
    // Shed / backpressure verdicts do reach the vehicle (the backend is
    // alive, just refusing work) after the uplink round trip.
    const sim::Time deliver_at = sim_.now() + kUplinkRtt;
    const std::uint64_t id = acquire(std::move(done), request.criticality);
    Outstanding* out = lookup(id);
    out->start = sim_.now();  // not preemptible: no reservation to reclaim
    out->completion = sim_.schedule_at(
        deliver_at, [this, id, reject] { respond(id, reject); });
    update_depth_gauge();
    return;
  }

  bool cache_hit = false;
  ArtifactHandle artifact = resolve(task_set, &cache_hit);
  const sim::Duration svc = static_cast<sim::Duration>(
      static_cast<double>(service_time(*artifact, cache_hit)) * slow_factor_);

  const auto worker_it =
      std::min_element(worker_free_.begin(), worker_free_.end());
  const std::size_t worker =
      static_cast<std::size_t>(worker_it - worker_free_.begin());
  const sim::Time arrival = sim_.now() + kUplinkRtt / 2;
  const sim::Time start = std::max(arrival, worker_free_[worker]);
  const sim::Time end = start + svc;
  worker_free_[worker] = end;
  const std::uint64_t token = next_token_++;
  worker_last_token_[worker] = token;
  ++dequeues_;

  const std::uint64_t id = acquire(std::move(done), request.criticality);
  Outstanding* out = lookup(id);
  out->key = key;
  out->worker = static_cast<std::uint32_t>(worker);
  out->start = start;
  out->last_on_worker_token = token;
  out->admitted = true;
  ++queued_;
  if (config_.batching) {
    ++batches_;
    out->open = true;
    if (OpenCohort* open = find_open(key)) {
      open->id = id;
    } else {
      open_cohorts_.push_back(OpenCohort{key, id});
    }
  }

  SynthesisResponse response;
  response.status = artifact->feasible ? ResponseStatus::kOk
                                       : ResponseStatus::kInfeasible;
  response.artifact = std::move(artifact);
  response.cache_hit = cache_hit;
  const sim::Time deliver_at = end + kUplinkRtt / 2;
  out->completion = sim_.schedule_at(
      deliver_at, [this, id, response = std::move(response)] {
        if (partitioned_) {
          // The work completed but the response cannot reach the
          // vehicle(s); the whole cohort's downlink copies are lost.
          if (const Outstanding* cohort = lookup(id)) {
            responses_dropped_ += cohort->members;
          }
          close_entry(id);
          return;
        }
        completed_ += respond(id, response);
      });
  max_queue_depth_ = std::max(max_queue_depth_, queued_);
  update_depth_gauge();
}

// --- Outstanding slab, member pool, open cohorts ---------------------------

std::uint64_t FleetScheduleService::acquire(Callback done,
                                            Criticality criticality) {
  std::uint32_t slot = outstanding_free_;
  if (slot != kNone) {
    outstanding_free_ = outstanding_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(outstanding_.size());
    outstanding_.emplace_back();
  }
  Outstanding& out = outstanding_[slot];
  add_member(out, std::move(done));
  out.criticality = criticality;
  out.in_use = true;
  out.seq = next_seq_++;
  ++live_entries_;
  return (static_cast<std::uint64_t>(slot) + 1) << 32 | out.gen;
}

FleetScheduleService::Outstanding* FleetScheduleService::lookup(
    std::uint64_t id) {
  const std::uint64_t slot = (id >> 32) - 1;
  if (slot >= outstanding_.size()) return nullptr;
  Outstanding& out = outstanding_[slot];
  if (!out.in_use || out.gen != static_cast<std::uint32_t>(id)) {
    return nullptr;
  }
  return &out;
}

void FleetScheduleService::add_member(Outstanding& cohort, Callback done) {
  std::uint32_t member = member_free_;
  if (member != kNone) {
    member_free_ = members_[member].next;
  } else {
    member = static_cast<std::uint32_t>(members_.size());
    members_.emplace_back();
  }
  members_[member].done = std::move(done);
  members_[member].next = kNone;
  if (cohort.last_member == kNone) {
    cohort.first_member = member;
  } else {
    members_[cohort.last_member].next = member;
  }
  cohort.last_member = member;
  ++cohort.members;
}

void FleetScheduleService::free_members(std::uint32_t member) {
  while (member != kNone) {
    Member& m = members_[member];
    const std::uint32_t next = m.next;
    m.done.reset();
    m.next = member_free_;
    member_free_ = member;
    member = next;
  }
}

void FleetScheduleService::release(std::uint32_t slot) {
  Outstanding& out = outstanding_[slot];
  free_members(out.first_member);
  const std::uint32_t gen = out.gen + 1;  // outstanding ids go stale
  out = Outstanding{};
  out.gen = gen;
  out.next_free = outstanding_free_;
  outstanding_free_ = slot;
  --live_entries_;
}

FleetScheduleService::OpenCohort* FleetScheduleService::find_open(
    std::uint64_t key) {
  for (OpenCohort& open : open_cohorts_) {
    if (open.key == key) return &open;
  }
  return nullptr;
}

std::size_t FleetScheduleService::respond(std::uint64_t id,
                                          const SynthesisResponse& response) {
  Outstanding* out = lookup(id);
  if (out == nullptr) return 0;
  const std::size_t size = out->members;
  if (out->admitted) record_batch(size);
  // Detach the chain before closing: a member may submit again, and that
  // can reuse this slot and grow the pools.
  std::uint32_t member = out->first_member;
  out->first_member = kNone;
  close_entry(id);
  // Fan-out: the leader hears first, joiners in arrival order.
  while (member != kNone) {
    Callback done = std::move(members_[member].done);
    const std::uint32_t next = members_[member].next;
    members_[member].next = member_free_;
    member_free_ = member;
    if (done) done(response);
    member = next;
  }
  return size;
}

void FleetScheduleService::close_entry(std::uint64_t id) {
  Outstanding* out = lookup(id);
  if (out == nullptr) return;
  if (out->open) {
    OpenCohort* open = find_open(out->key);
    if (open != nullptr && open->id == id) {
      *open = open_cohorts_.back();
      open_cohorts_.pop_back();
    }
  }
  if (out->admitted) --queued_;
  release(static_cast<std::uint32_t>((id >> 32) - 1));
  update_depth_gauge();
}

void FleetScheduleService::record_batch(std::size_t size) {
  std::size_t bucket = 0;
  while (bucket + 1 < batch_hist_.size() &&
         (static_cast<std::size_t>(1) << bucket) < size) {
    ++bucket;
  }
  ++batch_hist_[bucket];
}

SynthesisResponse FleetScheduleService::query(
    const SynthesisRequest& request) {
  ++requests_total_;
  SynthesisResponse response;
  if (crashed_ || partitioned_) {
    ++lost_unreachable_;
    response.status = ResponseStatus::kUnreachable;
    return response;
  }
  if (!admit(request.criticality, &response)) return response;
  bool cache_hit = false;
  response.artifact = resolve(*request.task_set, &cache_hit);
  ++completed_;
  response.status = response.artifact->feasible ? ResponseStatus::kOk
                                                : ResponseStatus::kInfeasible;
  response.cache_hit = cache_hit;
  return response;
}

void FleetScheduleService::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++crashes_;
  if (coverage_ != nullptr) coverage_->hit(cov_crash_);
  // Outstanding work dies with the process; clients time out. Every
  // coalesced cohort member was a caller in its own right.
  for (std::uint32_t slot = 0; slot < outstanding_.size(); ++slot) {
    Outstanding& out = outstanding_[slot];
    if (!out.in_use) continue;
    sim_.cancel(out.completion);
    lost_unreachable_ += out.members;
    release(slot);
  }
  open_cohorts_.clear();
  queued_ = 0;
  update_depth_gauge();
  worker_free_.assign(config_.workers, 0);
  worker_last_token_.assign(config_.workers, 0);
  if (config_.crash_clears_cache) {
    for (CacheShard& shard : cache_) {
      shard.entries.clear();
      shard.order.clear();
    }
  }
}

void FleetScheduleService::restart() {
  if (!crashed_) return;
  crashed_ = false;
  worker_free_.assign(config_.workers, sim_.now());
}

void FleetScheduleService::set_partitioned(bool partitioned) {
  if (partitioned && !partitioned_ && coverage_ != nullptr) {
    coverage_->hit(cov_partition_);
  }
  partitioned_ = partitioned;
}

std::size_t FleetScheduleService::cache_entries() const {
  std::size_t total = 0;
  for (const CacheShard& shard : cache_) total += shard.entries.size();
  return total;
}

std::uint64_t FleetScheduleService::fingerprint() const {
  std::uint64_t hash = obs::kFingerprintOffset;
  const std::uint64_t fields[] = {
      requests_total_,    completed_,     shed_total_,
      shed_[0],           shed_[1],       shed_[2],
      backpressured_,     preempted_,     lost_unreachable_,
      responses_dropped_, cache_hits_,    cache_misses_,
      synthesis_runs_,    crashes_,       max_queue_depth_,
      live_entries_,      dequeues_,      batches_,
      coalesced_,         cache_collisions_, cache_evictions_};
  for (const std::uint64_t field : fields) hash = obs::fnv1a_u64(hash, field);
  for (const std::uint64_t bucket : batch_hist_) {
    hash = obs::fnv1a_u64(hash, bucket);
  }
  return hash;
}

}  // namespace dynaplat::backend
