#include "sim/sweep.hpp"

#include <algorithm>

#include "concurrency/thread_pool.hpp"
#include "obs/fnv.hpp"

namespace dynaplat::sim {

ScenarioSweep::ScenarioSweep(SweepConfig config) : config_(config) {
  if (config_.threads > 0) {
    pool_ = std::make_unique<concurrency::ThreadPool>(config_.threads);
  }
}

ScenarioSweep::~ScenarioSweep() = default;

std::size_t ScenarioSweep::threads() const {
  return pool_ ? pool_->size() : 0;
}

void ScenarioSweep::for_each(std::size_t n,
                             const std::function<void(ScenarioRun&)>& body) {
  const std::size_t grain = std::max<std::size_t>(1, config_.grain);
  concurrency::parallel_for(pool_.get(), 0, n, grain, [&](std::size_t i) {
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
    const std::vector<obs::CoverageMap>& shards) {
  obs::CoverageMap merged;
  for (const obs::CoverageMap& shard : shards) merged.merge_from(shard);
  return merged;
}

}  // namespace dynaplat::sim
