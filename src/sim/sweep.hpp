// Parallel scenario sweep: the repo's one fan-out.
//
// A sweep runs N independent jobs — fault-campaign seeds, fuzz candidates,
// XiL parameter grids, DSE candidate evaluations — on a fixed set of worker
// threads that lives as long as the sweep. Each scenario gets its own
// Simulator (the kernel is single-threaded by design) and its own Random
// derived via Random::stream(seed, index), so no state is shared between
// runs and the per-scenario outcome is a pure function of (family seed,
// index). Results land in index-addressed slots and fingerprints merge in
// index order, so the sweep's aggregate output is bit-identical at any
// thread count (DESIGN.md §10).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/coverage.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace dynaplat::sim {

struct SweepConfig {
  /// Family seed; scenario i draws from Random::stream(seed, i).
  std::uint64_t seed = 1;
  /// Worker threads besides the calling thread, which takes jobs too: a
  /// sweep executes on threads + 1 threads. 0 runs every scenario inline on
  /// the calling thread, so 0 vs N threads is a pure determinism A/B.
  std::size_t threads = 0;
};

/// Everything one scenario owns: its index in the sweep, the family seed,
/// a private RNG stream, and a fresh simulator.
struct ScenarioRun {
  std::size_t index = 0;
  std::uint64_t family_seed = 0;
  Random rng;
  Simulator simulator;

  ScenarioRun() = default;
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;
};

class ScenarioSweep {
 public:
  /// Starts config.threads workers; they idle until a batch arrives and
  /// are joined by the destructor.
  explicit ScenarioSweep(SweepConfig config = {});
  ~ScenarioSweep();

  ScenarioSweep(const ScenarioSweep&) = delete;
  ScenarioSweep& operator=(const ScenarioSweep&) = delete;

  /// Worker threads besides the caller (0 = inline serial).
  std::size_t threads() const { return workers_.size(); }

  /// Runs job(i) for every i in [0, n) and blocks until all finished.
  /// Workers and the calling thread claim indices from one atomic cursor;
  /// jobs must write results into index-addressed slots. If jobs throw, no
  /// further index is claimed and the exception of the lowest failing index
  /// is rethrown on the calling thread; the sweep stays usable. One batch
  /// at a time: a job must not start another batch on the same sweep.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& job);

  /// for_each_index with a fresh ScenarioRun (index, family seed, stream
  /// RNG, simulator) handed to every scenario.
  void for_each(std::size_t n, const std::function<void(ScenarioRun&)>& body);

  /// Runs body over [0, n) and collects the outcomes in index order.
  /// Outcome must be default-constructible and assignable.
  template <typename Outcome>
  std::vector<Outcome> run(std::size_t n,
                           const std::function<Outcome(ScenarioRun&)>& body) {
    std::vector<Outcome> results(n);
    for_each(n, [&](ScenarioRun& r) { results[r.index] = body(r); });
    return results;
  }

  /// Folds per-scenario fingerprints into one sweep fingerprint (FNV-1a in
  /// index order — thread-count independent by construction).
  static std::uint64_t merge_fingerprints(
      const std::vector<std::uint64_t>& fingerprints);

  /// Folds per-scenario coverage maps into one sweep-wide map, merging in
  /// index order so the aggregate (including its interning order, and hence
  /// its snapshot_json()) is bit-identical at any thread count.
  static obs::CoverageMap merge_coverage(
      const std::vector<obs::CoverageMap>& maps);

 private:
  void worker_loop();
  /// Claims and runs indices of the current batch until none are left.
  void drain();
  /// Wakes every worker for shutdown and joins it.
  void stop();

  SweepConfig config_;

  // The current batch. job_ and end_ are written under mutex_ before the
  // generation bump that wakes the workers; next_ is the shared cursor.
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t end_ = 0;
  std::atomic<std::size_t> next_{0};

  std::mutex mutex_;
  std::condition_variable wake_;  ///< workers: new batch or shutdown
  std::condition_variable done_;  ///< caller: last worker left the batch
  std::uint64_t generation_ = 0;  ///< batches started
  std::size_t busy_ = 0;          ///< workers still inside the batch
  bool stopping_ = false;
  std::size_t error_index_ = 0;
  std::exception_ptr error_;

  // Last, so the state the workers use outlives them.
  std::vector<std::thread> workers_;
};

}  // namespace dynaplat::sim
