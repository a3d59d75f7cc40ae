#include "backend/client.hpp"

namespace dynaplat::backend {

BackendClient::BackendClient(sim::Simulator& simulator, ClientConfig config)
    : engine_(simulator, config, *this) {}

void BackendClient::connect(FleetScheduleService* service) {
  service_ = service;
  engine_.set_regions(service == nullptr
                          ? std::vector<FleetScheduleService*>{}
                          : std::vector<FleetScheduleService*>{service});
}

void BackendClient::set_loopback(dse::ScheduleServer* server) {
  loopback_ = server;
}

void BackendClient::set_metrics(obs::MetricsRegistry* metrics,
                                const std::string& prefix) {
  if (metrics == nullptr) {
    state_gauge_ = nullptr;
    fallback_counter_ = nullptr;
    engine_.set_timeout_counter(nullptr);
    return;
  }
  state_gauge_ = &metrics->gauge(prefix + "breaker_state");
  engine_.set_timeout_counter(&metrics->counter(prefix + "timeouts"));
  fallback_counter_ = &metrics->counter(prefix + "fallbacks");
}

void BackendClient::set_coverage(obs::CoverageMap* coverage) {
  coverage_ = coverage;
  if (coverage_ == nullptr) return;
  cov_open_ = coverage_->key("client.breaker.open");
  cov_half_open_ = coverage_->key("client.breaker.half_open");
  cov_closed_ = coverage_->key("client.breaker.closed_after_open");
  cov_stale_ = coverage_->key("client.fallback.stale_cache");
  cov_local_ = coverage_->key("client.fallback.local_admission");
  cov_exhausted_ = coverage_->key("client.fallback.exhausted");
}

// --- Engine hooks -------------------------------------------------------------

void BackendClient::build_request(std::uint32_t, std::uint32_t tag,
                                  SynthesisRequest& request) {
  request = inflight_.at(tag).request;
}

void BackendClient::store_artifact(std::uint32_t, std::uint32_t tag,
                                   const ArtifactHandle& artifact) {
  cache_store(inflight_.at(tag).request.task_set, artifact);
}

const dse::ScheduleServer::Artifact* BackendClient::serve_stale(
    std::uint32_t, std::uint32_t tag) {
  auto it = cache_.find(inflight_.at(tag).request.task_set->key());
  if (it == cache_.end() || !it->second.artifact->feasible) return nullptr;
  it->second.stale_used = true;
  return it->second.artifact.get();
}

void BackendClient::on_breaker(std::uint32_t, BreakerState prev,
                               BreakerState next) {
  if (coverage_ != nullptr) {
    coverage_->hit(next == BreakerState::kOpen       ? cov_open_
                   : next == BreakerState::kHalfOpen ? cov_half_open_
                                                     : cov_closed_);
  }
  // Back on the backend: refresh every artifact that was served stale
  // while disconnected *before* telling listeners the uplink is good —
  // degradation must only lift once the vehicle runs fresh artifacts.
  if (next == BreakerState::kClosed) revalidate_stale();
  if (state_gauge_ != nullptr) {
    state_gauge_->set(static_cast<double>(static_cast<int>(next)));
  }
  for (const Listener& listener : listeners_) listener(prev, next);
}

void BackendClient::on_outcome(std::uint32_t, std::uint32_t tag, sim::Time,
                               const BackendOutcome& outcome,
                               const dse::ScheduleServer::Artifact* artifact) {
  BackendOutcome result = outcome;
  if (artifact != nullptr) result.artifact = *artifact;
  if (outcome.source != BackendOutcome::Source::kBackend) {
    if (coverage_ != nullptr) {
      coverage_->hit(outcome.stale              ? cov_stale_
                     : outcome.locally_admitted ? cov_local_
                                                : cov_exhausted_);
    }
    if (fallback_counter_ != nullptr) fallback_counter_->add();
  }
  auto it = inflight_.find(tag);
  Callback done = std::move(it->second.done);
  inflight_.erase(it);
  if (done) done(result);
}

// --- Stale cache ------------------------------------------------------------

void BackendClient::revalidate_stale() {
  if (service_ == nullptr) return;
  for (auto& [key, entry] : cache_) {
    if (!entry.stale_used) continue;
    SynthesisRequest request;
    request.task_set = entry.task_set;
    request.criticality = Criticality::kResync;
    const SynthesisResponse response = service_->query(request);
    if (response.status == ResponseStatus::kOk ||
        response.status == ResponseStatus::kInfeasible) {
      entry.artifact = response.artifact;
      entry.stale_used = false;
      ++revalidated_;
    }
    // Shed / unreachable: stay marked stale, the next close retries.
  }
}

void BackendClient::cache_store(std::shared_ptr<const TaskSet> task_set,
                                ArtifactHandle artifact) {
  if (engine_.config().artifact_cache_capacity == 0) return;
  const std::uint64_t key = task_set->key();
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second.artifact = std::move(artifact);
    it->second.stale_used = false;
    return;
  }
  while (cache_.size() >= engine_.config().artifact_cache_capacity) {
    auto oldest = cache_.begin();
    for (auto scan = cache_.begin(); scan != cache_.end(); ++scan) {
      if (scan->second.order < oldest->second.order) oldest = scan;
    }
    cache_.erase(oldest);
  }
  CacheEntry entry;
  entry.artifact = std::move(artifact);
  entry.task_set = std::move(task_set);
  entry.order = next_order_++;
  cache_.emplace(key, std::move(entry));
}

// --- Requests -----------------------------------------------------------------

void BackendClient::start(SynthesisRequest request, Callback done,
                          bool sync) {
  const std::uint32_t tag = next_tag_++;
  inflight_.emplace(tag, Inflight{std::move(request), std::move(done)});
  if (sync) {
    engine_.query(0, tag);
  } else {
    engine_.request(0, tag);
  }
}

BackendOutcome BackendClient::synthesize(
    const std::vector<dse::AnalysisTask>& tasks, std::uint64_t ecu_mips,
    Criticality criticality) {
  if (service_ == nullptr && loopback_ != nullptr) {
    ++loopback_attempts_;
    BackendOutcome outcome;
    outcome.source = BackendOutcome::Source::kBackend;
    outcome.artifact = loopback_->synthesize(tasks, ecu_mips);
    outcome.ok = outcome.artifact.feasible;
    outcome.status = outcome.ok ? ResponseStatus::kOk
                                : ResponseStatus::kInfeasible;
    if (outcome.ok) {
      cache_store(std::make_shared<const TaskSet>(tasks, ecu_mips),
                  std::make_shared<const dse::ScheduleServer::Artifact>(
                      outcome.artifact));
    }
    return outcome;
  }
  SynthesisRequest request;
  request.task_set = std::make_shared<const TaskSet>(tasks, ecu_mips);
  request.criticality = criticality;
  BackendOutcome result;
  start(std::move(request),
        [&result](const BackendOutcome& outcome) { result = outcome; },
        /*sync=*/true);
  return result;
}

void BackendClient::request(SynthesisRequest request, Callback done) {
  start(std::move(request), std::move(done), /*sync=*/false);
}

}  // namespace dynaplat::backend
