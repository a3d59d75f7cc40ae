#include "sim/sweep.hpp"

#include "obs/fnv.hpp"

namespace dynaplat::sim {

ScenarioSweep::ScenarioSweep(SweepConfig config) : config_(config) {
  workers_.reserve(config_.threads);
  try {
    for (std::size_t i = 0; i < config_.threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop();  // join the workers that did start
    throw;
  }
}

ScenarioSweep::~ScenarioSweep() { stop(); }

void ScenarioSweep::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ScenarioSweep::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
    }
    drain();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_ == 0) done_.notify_one();
  }
}

void ScenarioSweep::drain() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end_) return;
    try {
      (*job_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_ || i < error_index_) {
        error_index_ = i;
        error_ = std::current_exception();
      }
      // Stop claiming. Every lower index was claimed before i, so a
      // lower-index failure still runs and reports itself.
      next_.store(end_, std::memory_order_relaxed);
      return;
    }
  }
}

void ScenarioSweep::for_each_index(
    std::size_t n, const std::function<void(std::size_t)>& job) {
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) job(i);
    return;
  }
  if (n == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    end_ = n;
    next_.store(0, std::memory_order_relaxed);
    busy_ = workers_.size();
    error_ = nullptr;
    ++generation_;
  }
  wake_.notify_all();
  drain();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return busy_ == 0; });
    job_ = nullptr;
    error = std::move(error_);
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ScenarioSweep::for_each(std::size_t n,
                             const std::function<void(ScenarioRun&)>& body) {
  for_each_index(n, [&](std::size_t i) {
    ScenarioRun run;
    run.index = i;
    run.family_seed = config_.seed;
    run.rng = Random::stream(config_.seed, i);
    body(run);
  });
}

std::uint64_t ScenarioSweep::merge_fingerprints(
    const std::vector<std::uint64_t>& fingerprints) {
  std::uint64_t h = obs::fnv1a_u64(obs::kFingerprintOffset,
                                   fingerprints.size());
  for (const std::uint64_t fp : fingerprints) h = obs::fnv1a_u64(h, fp);
  return h;
}

obs::CoverageMap ScenarioSweep::merge_coverage(
    const std::vector<obs::CoverageMap>& maps) {
  obs::CoverageMap merged;
  for (const obs::CoverageMap& map : maps) merged.merge_from(map);
  return merged;
}

}  // namespace dynaplat::sim
