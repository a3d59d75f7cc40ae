// Design space exploration over app-to-ECU mappings (paper Sec. 2.3; related
// work [9], [14]).
//
// The explorer searches concrete deployments of a modeled application set
// onto a modeled hardware architecture, scoring each candidate with the
// verification engine (hard feasibility) and a soft cost that rewards ECU
// consolidation, load balance and communication locality. Four strategies
// with very different cost/quality trade-offs are provided and compared in
// E5: exhaustive, greedy first-fit decreasing, simulated annealing, and a
// genetic algorithm.
//
// Hot-path machinery (DESIGN.md "DSE performance & threading model"):
//  * Exhaustive sweeps and genetic fitness evaluation fan out over a
//    sim::ScenarioSweep; partial results live in index-addressed slots and
//    are merged in index order, so any thread count (including 0 = inline
//    serial) reproduces the same best assignment for the same seed.
//  * Simulated annealing runs N independent chains as sweep scenarios, each
//    on its sim::Random::stream(seed, chain) generator; the best-of-chains
//    merge walks chains in index order.
//  * A genome-keyed memoization cache (sharded, per-shard mutex) remembers
//    cost and feasibility so repeated candidates skip the verifier.
//  * Annealing's single-gene moves use an incremental evaluator that only
//    recomputes the per-ECU utilization and per-interface communication
//    terms the moved app touches.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/system_model.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"

namespace dynaplat::dse {

struct ExplorationResult {
  bool feasible = false;
  model::Assignment assignment;
  double cost = 0.0;
  std::uint64_t candidates_evaluated = 0;
  /// Candidates whose cost/feasibility came from the memoization cache
  /// (verifier skipped). Always <= candidates_evaluated.
  std::uint64_t cache_hits = 0;
  std::string strategy;
};

struct CostWeights {
  double per_ecu = 10.0;         ///< each powered ECU (consolidation pull)
  double load_imbalance = 5.0;   ///< max - min ECU utilization
  double cross_ecu_comm = 1.0;   ///< per cross-ECU interface byte/ms
  double infeasible_penalty = 1e6;
};

class Explorer {
 public:
  Explorer(const model::SystemModel& system_model, CostWeights weights = {});

  /// Soft cost of a concrete assignment (adds the penalty when the
  /// verification engine reports errors).
  double cost(const model::Assignment& assignment) const;
  bool feasible(const model::Assignment& assignment) const;

  /// Enumerates every mapping (|ecus|^|apps| candidates) — exact but only
  /// viable for small systems. `threads` > 0 partitions the sweep across
  /// that many sweep workers besides the caller; the result is identical to
  /// the serial sweep.
  ExplorationResult exhaustive(std::uint64_t max_candidates = 2'000'000,
                               std::size_t threads = 0);

  /// Apps by decreasing utilization onto the first ECU where the partial
  /// assignment stays feasible.
  ExplorationResult greedy();

  /// Simulated annealing from the greedy seed. `chains` independent chains
  /// run on sim::Random::stream(seed, chain) generators (across `threads`
  /// sweep workers when > 0) and the best result wins; the outcome depends
  /// only on (iterations, seed, chains), never on `threads`.
  ExplorationResult simulated_annealing(std::uint64_t iterations = 20'000,
                                        std::uint64_t seed = 1,
                                        std::size_t chains = 1,
                                        std::size_t threads = 0);

  /// Genetic algorithm: tournament selection, uniform crossover, point
  /// mutation. Offspring are bred serially from the seeded generator (so
  /// the genome sequence is reproducible) and their fitness is evaluated in
  /// parallel; results are merged in population order, making the outcome
  /// independent of `threads`.
  ExplorationResult genetic(std::size_t population = 32,
                            std::size_t generations = 200,
                            std::uint64_t seed = 1,
                            std::size_t threads = 0);

  /// Memoization controls (cache is on by default; disabling restores the
  /// legacy always-reverify behaviour, used as the bench baseline).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  void clear_cache();
  std::size_t cache_size() const;

  /// Publishes exploration throughput into a metrics registry: per run,
  /// counters "dse.<strategy>.candidates" / "dse.<strategy>.cache_hits" and
  /// gauges "dse.<strategy>.candidates_per_sec" /
  /// "dse.<strategy>.cache_hit_rate". Null (the default) disables publication.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  /// White-box access for the fast-path cross-validation tests
  /// (tests/concurrency_test.cpp), which compare fast_feasible() /
  /// genome_soft_cost() against the full verifier genome by genome.
  friend class TestProbe;

  using Genome = std::vector<std::size_t>;  // app index -> ecu index

  /// FNV-1a over genes with a final avalanche; also picks the cache shard.
  struct GenomeHash {
    std::size_t operator()(const Genome& genome) const noexcept {
      std::uint64_t h = 1469598103934665603ULL;
      for (const std::size_t gene : genome) {
        h ^= static_cast<std::uint64_t>(gene);
        h *= 1099511628211ULL;
      }
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDULL;
      h ^= h >> 33;
      return static_cast<std::size_t>(h);
    }
  };

  struct CacheEntry {
    double cost = 0.0;
    bool has_cost = false;
    bool feasible = false;
    bool has_feasible = false;
  };

  struct CacheShard {
    std::mutex mutex;
    std::unordered_map<Genome, CacheEntry, GenomeHash> entries;
  };

  /// Second memoization level below the genome cache: the verifier's
  /// schedulability hook is a pure function of (ECU, hosted app set), and
  /// across candidates the same per-ECU app subsets recur far more often
  /// than whole genomes — so even a cache-miss genome usually verifies all
  /// its ECUs from this cache instead of re-running the admission test.
  struct SchedKey {
    const model::EcuDef* ecu = nullptr;
    std::vector<const model::AppDef*> apps;  ///< in hook call order
    bool operator==(const SchedKey& other) const {
      return ecu == other.ecu && apps == other.apps;
    }
  };
  struct SchedKeyHash {
    std::size_t operator()(const SchedKey& key) const noexcept {
      std::uint64_t h = reinterpret_cast<std::uintptr_t>(key.ecu);
      for (const auto* app : key.apps) {
        h ^= reinterpret_cast<std::uintptr_t>(app) + 0x9E3779B97F4A7C15ULL +
             (h << 6) + (h >> 2);
      }
      return static_cast<std::size_t>(h);
    }
  };
  struct SchedEntry {
    bool ok = false;
    std::string why;
  };
  struct SchedShard {
    std::mutex mutex;
    std::unordered_map<SchedKey, SchedEntry, SchedKeyHash> entries;
  };

  /// Interface topology resolved once at construction so per-candidate
  /// scoring does not re-scan the app list for providers/consumers.
  struct InterfaceInfo {
    const model::InterfaceDef* def = nullptr;
    std::size_t provider_app = kNoApp;       ///< index into apps_
    std::vector<std::size_t> consumer_apps;  ///< model order, as consumers_of
    double pair_cost = 0.0;  ///< weighted cost of one cross-ECU host pair
    /// Per cross-ECU pair stream bandwidth (0 unless stream paradigm).
    std::uint64_t stream_bw = 0;
  };

  /// Genome-native feasibility tables, compiled once per model. All decoded
  /// genomes deploy every app with replica runs on consecutive ECUs, so the
  /// verifier's rules factor into (a) model-only facts that hold for every
  /// genome, (b) per-(app, ECU) host admissibility, (c) per-(ECU, hosted
  /// set) capacity/schedulability (the latter memoized in sched_cache_) and
  /// (d) per-(interface, ECU pair) network verdicts plus a genome-summed
  /// stream bandwidth budget. fast_feasible() walks these tables instead of
  /// re-deriving them from strings; it must stay verdict-identical to
  /// feasible(decode(genome)) — tests/concurrency_test.cpp cross-checks it
  /// against the full verifier on randomized genomes.
  struct PairVerdict {
    bool fatal = false;    ///< unreachable or latency floor violated
    std::int32_t bw_net = -1;  ///< network index for stream load, -1 = none
  };
  struct FastModel {
    bool static_error = false;  ///< model-only error rule fired
    std::vector<char> app_ecu_ok;       ///< [app * necus + ecu]
    std::vector<PairVerdict> pairs;     ///< [(ifc * necus + pecu) * necus + cecu]
    std::vector<std::uint64_t> net_budget;  ///< 75% usable bitrate per network
  };

  static constexpr std::size_t kNoApp = static_cast<std::size_t>(-1);
  static constexpr std::size_t kCacheShards = 16;

  /// Incremental soft-cost evaluator for annealing's single-gene moves;
  /// defined in exploration.cpp.
  class SoftCostState;

  model::Assignment decode(const Genome& genome) const;
  double genome_cost(const Genome& genome) const;
  /// Soft terms only (no infeasibility penalty): powered ECUs, load
  /// imbalance, cross-ECU communication.
  double soft_cost(const model::Assignment& assignment) const;

  void build_fast_model();
  /// True iff app's replica run starting at `gene` covers `ecu`.
  bool genome_hosted_on(std::size_t app, std::size_t gene,
                        std::size_t ecu) const;
  /// Verdict-identical to feasible(decode(genome)), via FastModel tables.
  bool fast_feasible(const Genome& genome) const;
  /// Bit-identical to soft_cost(decode(genome)): same terms accumulated in
  /// the same order (per-ECU sums walk apps_by_name_, mirroring
  /// Assignment::apps_on), without materializing the assignment.
  double genome_soft_cost(const Genome& genome) const;
  /// genome_cost via the fast path when the cache is enabled, else the
  /// legacy decode-and-verify path (the bench baseline).
  double evaluate_genome(const Genome& genome) const;

  /// Cache-backed variants; safe to call from sweep workers. `hits` (may be
  /// null) is bumped when the verifier was skipped.
  double cached_genome_cost(const Genome& genome,
                            std::atomic<std::uint64_t>* hits) const;
  bool cached_feasible(const Genome& genome,
                       std::atomic<std::uint64_t>* hits) const;

  /// Apps with replicas occupy `replicas` consecutive ECUs starting at the
  /// gene value (wrapping), so every genome stays replica-complete.
  std::vector<std::string> hosts_for(std::size_t app_index,
                                     std::size_t ecu_index) const;

  void publish_metrics(const ExplorationResult& result,
                       double wall_seconds) const;

  const model::SystemModel& model_;
  CostWeights weights_;
  model::Verifier verifier_;
  /// The (ECU, app set) memo around make_verifier_hook(); installed into
  /// verifier_ and called directly by fast_feasible().
  model::Verifier::SchedulabilityHook sched_memo_;
  std::vector<const model::AppDef*> apps_;
  std::vector<const model::EcuDef*> ecus_;

  FastModel fast_;
  std::vector<InterfaceInfo> interface_info_;
  std::vector<std::size_t> apps_by_name_;  ///< app indices, name-sorted
  /// app index -> indices into interface_info_ the app provides or consumes.
  std::vector<std::vector<std::size_t>> app_interfaces_;

  bool cache_enabled_ = true;
  obs::MetricsRegistry* metrics_ = nullptr;
  mutable std::array<CacheShard, kCacheShards> cache_;
  mutable std::array<SchedShard, kCacheShards> sched_cache_;
};

}  // namespace dynaplat::dse
