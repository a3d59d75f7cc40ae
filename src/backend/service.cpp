#include "backend/service.hpp"

#include <algorithm>

#include "obs/fnv.hpp"

namespace dynaplat::backend {

namespace {

using obs::fnv1a;

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
  for (auto& [id, out] : outstanding_) sim_.cancel(out.completion);
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
  return config_.retry_after_base +
         static_cast<sim::Duration>(over) * (config_.retry_after_base / 8);
}

bool FleetScheduleService::preempt_routine() {
  // Victim: the most recently accepted routine (non-recovery) request that
  // has not started service AND is still the last reservation on its
  // worker — only then can its reserved service window be reclaimed
  // exactly (later arrivals would have stacked behind it otherwise).
  const sim::Time now = sim_.now();
  std::uint64_t victim_id = 0;
  const Outstanding* victim = nullptr;
  for (const auto& [id, out] : outstanding_) {
    if (out.criticality == Criticality::kRecovery) continue;
    if (out.start <= now) continue;  // already in service
    if (worker_last_token_[out.worker] != out.last_on_worker_token) continue;
    if (victim == nullptr || id > victim_id) {
      victim_id = id;
      victim = &out;
    }
  }
  if (victim == nullptr) return false;
  ++preempted_;
  ++shed_total_;
  ++shed_[static_cast<std::size_t>(victim->criticality)];
  if (shed_counter_ != nullptr) shed_counter_->add();
  if (coverage_ != nullptr) coverage_->hit(cov_preempt_);
  worker_free_[victim->worker] = victim->start;
  sim_.cancel(outstanding_[victim_id].completion);
  SynthesisResponse shed;
  shed.status = ResponseStatus::kShed;
  shed.retry_after = retry_hint();
  respond(victim_id, std::move(shed));
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

std::uint64_t FleetScheduleService::request_key(
    const SynthesisRequest& request) const {
  if (config_.key_fn != nullptr) {
    return config_.key_fn(request.tasks, request.ecu_mips);
  }
  if (request.key_hint != 0) return request.key_hint;
  return topology_key(request.tasks, request.ecu_mips);
}

dse::ScheduleServer::Artifact FleetScheduleService::resolve(
    std::uint64_t key, const SynthesisRequest& request, bool* cache_hit) {
  const std::uint64_t sig = topology_sig(request.tasks, request.ecu_mips);
  CacheShard& shard = cache_[key % cache_.size()];
  auto it = shard.entries.find(key);
  bool collided = false;
  if (it != shard.entries.end()) {
    if (it->second.sig == sig) {
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
  dse::ScheduleServer::Artifact artifact =
      server_.synthesize(request.tasks, request.ecu_mips);
  if (collided) {
    // Last-writer-wins on a contested key; the key stays at its original
    // position in the eviction order.
    it->second = CacheEntry{artifact, sig};
    return artifact;
  }
  const std::size_t per_shard =
      std::max<std::size_t>(config_.cache_capacity / cache_.size(), 1);
  while (shard.order.size() >= per_shard) {
    shard.entries.erase(shard.order.front());
    shard.order.pop_front();
    ++cache_evictions_;
  }
  shard.entries.emplace(key, CacheEntry{artifact, sig});
  shard.order.push_back(key);
  return artifact;
}

sim::Duration FleetScheduleService::service_time(
    const dse::ScheduleServer::Artifact& artifact, bool cache_hit) const {
  if (cache_hit) return config_.min_service_time;
  // instructions / MIPS = microseconds of backend compute.
  const std::uint64_t mips = std::max<std::uint64_t>(config_.backend_mips, 1);
  const sim::Duration compute = static_cast<sim::Duration>(
      artifact.synthesis_instructions * 1'000ull / mips);
  return std::max(compute, config_.min_service_time);
}

void FleetScheduleService::submit(SynthesisRequest request, Callback done) {
  ++requests_total_;
  if (crashed_ || partitioned_) {
    // Lost on the wire: the vehicle's timeout is the only signal.
    ++lost_unreachable_;
    return;
  }
  const std::uint64_t key = request_key(request);
  if (config_.batching) {
    auto open = open_cohorts_.find(key);
    if (open != open_cohorts_.end()) {
      auto leader = outstanding_.find(open->second);
      if (leader != outstanding_.end() && leader->second.start > sim_.now()) {
        // Same topology, cohort not yet in service: ride the leader's
        // slot. No admission check, no worker dequeue — this is the
        // entire stampede win.
        leader->second.extra.push_back(std::move(done));
        leader->second.criticality =
            std::min(leader->second.criticality, request.criticality);
        ++coalesced_;
        return;
      }
      // Stale registration (cohort already started): close it to joiners.
      if (leader != outstanding_.end()) leader->second.open = false;
      open_cohorts_.erase(open);
    }
  }
  SynthesisResponse reject;
  if (!admit(request.criticality, &reject)) {
    // Shed / backpressure verdicts do reach the vehicle (the backend is
    // alive, just refusing work) after the uplink round trip.
    const sim::Time deliver_at = sim_.now() + config_.uplink_rtt;
    const std::uint64_t id = next_id_++;
    Outstanding out;
    out.done = std::move(done);
    out.criticality = request.criticality;
    out.start = sim_.now();  // not preemptible: no reservation to reclaim
    out.end = deliver_at;
    out.completion = sim_.schedule_at(
        deliver_at, [this, id, reject] { respond(id, reject); });
    outstanding_.emplace(id, std::move(out));
    update_depth_gauge();
    return;
  }

  bool cache_hit = false;
  dse::ScheduleServer::Artifact artifact = resolve(key, request, &cache_hit);
  const sim::Duration svc = static_cast<sim::Duration>(
      static_cast<double>(service_time(artifact, cache_hit)) * slow_factor_);

  const auto worker_it =
      std::min_element(worker_free_.begin(), worker_free_.end());
  const std::size_t worker =
      static_cast<std::size_t>(worker_it - worker_free_.begin());
  const sim::Time arrival = sim_.now() + config_.uplink_rtt / 2;
  const sim::Time start = std::max(arrival, worker_free_[worker]);
  const sim::Time end = start + svc;
  worker_free_[worker] = end;
  const std::uint64_t token = next_token_++;
  worker_last_token_[worker] = token;
  ++dequeues_;

  const std::uint64_t id = next_id_++;
  Outstanding out;
  out.done = std::move(done);
  out.criticality = request.criticality;
  out.key = key;
  out.worker = worker;
  out.start = start;
  out.end = end;
  out.last_on_worker_token = token;
  out.admitted = true;
  ++queued_;
  if (config_.batching) {
    ++batches_;
    out.open = true;
    open_cohorts_[key] = id;
  }

  SynthesisResponse response;
  response.status = artifact.feasible ? ResponseStatus::kOk
                                      : ResponseStatus::kInfeasible;
  response.artifact = std::move(artifact);
  response.cache_hit = cache_hit;
  const sim::Time deliver_at = end + config_.uplink_rtt / 2;
  out.completion = sim_.schedule_at(
      deliver_at, [this, id, response = std::move(response)] {
        if (partitioned_) {
          // The work completed but the response cannot reach the
          // vehicle(s); the whole cohort's downlink copies are lost.
          auto it = outstanding_.find(id);
          if (it != outstanding_.end()) {
            responses_dropped_ += 1 + it->second.extra.size();
          }
          close_entry(id);
          return;
        }
        completed_ += respond(id, response);
      });
  outstanding_.emplace(id, std::move(out));
  max_queue_depth_ = std::max(max_queue_depth_, queued_);
  update_depth_gauge();
}

std::size_t FleetScheduleService::respond(std::uint64_t id,
                                          SynthesisResponse response) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) return 0;
  Callback done = std::move(it->second.done);
  std::vector<Callback> extra = std::move(it->second.extra);
  if (it->second.admitted) record_batch(1 + extra.size());
  if (it->second.open) {
    auto open = open_cohorts_.find(it->second.key);
    if (open != open_cohorts_.end() && open->second == id) {
      open_cohorts_.erase(open);
    }
  }
  if (it->second.admitted) --queued_;
  outstanding_.erase(it);
  update_depth_gauge();
  // Fan-out: the leader hears first, joiners in arrival order.
  if (done) done(response);
  for (Callback& member : extra) {
    if (member) member(response);
  }
  return 1 + extra.size();
}

void FleetScheduleService::close_entry(std::uint64_t id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) return;
  if (it->second.open) {
    auto open = open_cohorts_.find(it->second.key);
    if (open != open_cohorts_.end() && open->second == id) {
      open_cohorts_.erase(open);
    }
  }
  if (it->second.admitted) --queued_;
  outstanding_.erase(it);
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
  dse::ScheduleServer::Artifact artifact =
      resolve(request_key(request), request, &cache_hit);
  ++completed_;
  response.status = artifact.feasible ? ResponseStatus::kOk
                                      : ResponseStatus::kInfeasible;
  response.artifact = std::move(artifact);
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
  for (auto& [id, out] : outstanding_) {
    sim_.cancel(out.completion);
    lost_unreachable_ += 1 + out.extra.size();
  }
  outstanding_.clear();
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
      outstanding_.size(), dequeues_,     batches_,
      coalesced_,         cache_collisions_, cache_evictions_};
  for (const std::uint64_t field : fields) hash = obs::fnv1a_u64(hash, field);
  for (const std::uint64_t bucket : batch_hist_) {
    hash = obs::fnv1a_u64(hash, bucket);
  }
  return hash;
}

}  // namespace dynaplat::backend
