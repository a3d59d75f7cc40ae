#include "dse/exploration.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "dse/schedulability.hpp"
#include "sim/sweep.hpp"

namespace dynaplat::dse {

Explorer::Explorer(const model::SystemModel& system_model,
                   CostWeights weights)
    : model_(system_model), weights_(weights) {
  // Wrap the exact schedulability test in the (ECU, app set) memo; the test
  // is a pure function of its arguments and the hook receives apps in a
  // deterministic (name-sorted) order, so cached verdicts are exact. Kept as
  // a member so fast_feasible() shares the memo with the full verifier.
  sched_memo_ =
      [this, inner = make_verifier_hook()](
          const model::EcuDef& ecu,
          const std::vector<const model::AppDef*>& apps, std::string* why) {
        if (!cache_enabled_) return inner(ecu, apps, why);
        SchedKey key;
        key.ecu = &ecu;
        key.apps = apps;
        SchedShard& shard =
            sched_cache_[SchedKeyHash{}(key) % kCacheShards];
        {
          std::lock_guard<std::mutex> lock(shard.mutex);
          const auto it = shard.entries.find(key);
          if (it != shard.entries.end()) {
            if (why != nullptr) *why = it->second.why;
            return it->second.ok;
          }
        }
        std::string reason;
        const bool ok = inner(ecu, apps, &reason);
        if (why != nullptr) *why = reason;
        std::lock_guard<std::mutex> lock(shard.mutex);
        SchedEntry& entry = shard.entries[std::move(key)];
        entry.ok = ok;
        entry.why = std::move(reason);
        return ok;
      };
  verifier_.set_schedulability_hook(sched_memo_);
  for (const auto& app : model_.apps()) apps_.push_back(&app);
  for (const auto& ecu : model_.ecus()) ecus_.push_back(&ecu);

  // Name-sorted app order mirrors Assignment::apps_on, whose std::map
  // iterates placements alphabetically; the incremental evaluator must sum
  // per-ECU utilization in the same order to reproduce cost()'s arithmetic.
  apps_by_name_.resize(apps_.size());
  std::iota(apps_by_name_.begin(), apps_by_name_.end(), std::size_t{0});
  std::sort(apps_by_name_.begin(), apps_by_name_.end(),
            [&](std::size_t a, std::size_t b) {
              return apps_[a]->name < apps_[b]->name;
            });

  const auto index_of = [&](const model::AppDef* app) {
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if (apps_[i] == app) return i;
    }
    return kNoApp;
  };
  app_interfaces_.resize(apps_.size());
  interface_info_.reserve(model_.interfaces().size());
  for (const auto& interface : model_.interfaces()) {
    InterfaceInfo info;
    info.def = &interface;
    const double period_ms =
        interface.period > 0 ? static_cast<double>(interface.period) / 1e6
                             : 100.0;
    info.pair_cost = weights_.cross_ecu_comm *
                     static_cast<double>(interface.payload_bytes) / period_ms;
    if (interface.paradigm == model::Paradigm::kStream &&
        interface.bandwidth_bps > 0) {
      info.stream_bw = interface.bandwidth_bps;
    }
    if (const model::AppDef* provider = model_.provider_of(interface.name)) {
      info.provider_app = index_of(provider);
    }
    for (const model::AppDef* consumer :
         model_.consumers_of(interface.name)) {
      info.consumer_apps.push_back(index_of(consumer));
    }
    const std::size_t index = interface_info_.size();
    const auto touch = [&](std::size_t app) {
      if (app == kNoApp) return;
      auto& list = app_interfaces_[app];
      if (list.empty() || list.back() != index) list.push_back(index);
    };
    touch(info.provider_app);
    for (const std::size_t consumer : info.consumer_apps) touch(consumer);
    interface_info_.push_back(std::move(info));
  }

  build_fast_model();
}

// --- Genome-native fast evaluation -------------------------------------------
//
// Compiles the verifier's ERROR-severity rules against the space of decoded
// genomes (every app deployed; replica runs on consecutive ECUs). Warnings
// never affect feasibility, so they are ignored. The fast path must return
// exactly feasible(decode(genome)) — DseFastPath.* in
// tests/concurrency_test.cpp cross-checks it rule by rule.

void Explorer::build_fast_model() {
  const std::size_t napps = apps_.size();
  const std::size_t necus = ecus_.size();
  FastModel fm;

  // (a) Model-only error rules: identical verdict for every decoded genome.
  // structure.unknown-app / unknown-ecu cannot fire (decode emits only
  // modeled names); structure.undeployed-app is a warning.
  for (const auto* ecu : ecus_) {
    if (!ecu->network.empty() && model_.network(ecu->network) == nullptr) {
      fm.static_error = true;  // structure.unknown-network
    }
  }
  for (const auto& interface : model_.interfaces()) {
    int providers = 0;
    for (const auto& app : model_.apps()) {
      providers += static_cast<int>(std::count(
          app.provides.begin(), app.provides.end(), interface.name));
    }
    if (providers > 1) fm.static_error = true;  // structure.multiple-owners
  }
  for (const auto& app : model_.apps()) {
    for (const auto& name : app.provides) {
      if (model_.interface(name) == nullptr) {
        fm.static_error = true;  // structure.unknown-interface
      }
    }
    for (const auto& name : app.consumes) {
      const model::InterfaceDef* interface = model_.interface(name);
      if (interface == nullptr) {
        fm.static_error = true;  // structure.unknown-interface
      } else if (model_.provider_of(name) == nullptr) {
        fm.static_error = true;  // structure.unprovided-interface
      } else {
        const auto pinned = app.min_versions.find(name);
        if (pinned != app.min_versions.end() &&
            interface->version < pinned->second) {
          fm.static_error = true;  // structure.version-mismatch
        }
      }
    }
    for (const model::AppDef* dep : model_.dependencies_of(app)) {
      if (dep->asil < app.asil) fm.static_error = true;  // asil.dependency
    }
    // redundancy.placement: decode places replicas on consecutive distinct
    // ECUs, so the distinct-host count is min(replicas, |ecus|) for every
    // genome — the rule fires iff the farm is too small.
    if (app.replicas > 1 && static_cast<std::size_t>(app.replicas) > necus) {
      fm.static_error = true;
    }
  }

  // (b) Host admissibility per (app, ECU): the host rule
  // (asil.ecu-certification, cpu.rtos-required) depends only on the pair.
  fm.app_ecu_ok.assign(napps * necus, 1);
  for (std::size_t a = 0; a < napps; ++a) {
    for (std::size_t e = 0; e < necus; ++e) {
      fm.app_ecu_ok[a * necus + e] =
          model::host_admits(*apps_[a], *ecus_[e]) ? 1 : 0;
    }
  }

  // (d) Network verdict per (interface, provider ECU, consumer ECU):
  // network.unreachable and network.latency-floor are pair-local; stream
  // interfaces record which network absorbs their bandwidth so
  // fast_feasible() can sum loads with the verifier's per-cross-pair
  // multiplicity.
  const auto network_index = [&](const model::NetworkDef* net) {
    const auto& networks = model_.networks();
    for (std::size_t k = 0; k < networks.size(); ++k) {
      if (&networks[k] == net) return static_cast<std::int32_t>(k);
    }
    return std::int32_t{-1};
  };
  fm.pairs.assign(interface_info_.size() * necus * necus, PairVerdict{});
  for (std::size_t i = 0; i < interface_info_.size(); ++i) {
    const model::InterfaceDef* def = interface_info_[i].def;
    for (std::size_t p = 0; p < necus; ++p) {
      for (std::size_t c = 0; c < necus; ++c) {
        if (p == c) continue;  // co-located: RTE-local, no network
        PairVerdict& verdict = fm.pairs[(i * necus + p) * necus + c];
        const model::EcuDef* pe = ecus_[p];
        const model::EcuDef* ce = ecus_[c];
        if (pe->network.empty() || pe->network != ce->network) {
          verdict.fatal = true;  // network.unreachable
          continue;
        }
        const model::NetworkDef* net = model_.network(pe->network);
        if (net == nullptr) continue;  // unknown-network: static error above
        if (def->max_latency > 0 &&
            def->max_latency < model::network_latency_floor(
                                   *net, def->payload_bytes)) {
          verdict.fatal = true;  // network.latency-floor
          continue;
        }
        if (interface_info_[i].stream_bw > 0) {
          verdict.bw_net = network_index(net);
        }
      }
    }
  }
  fm.net_budget.reserve(model_.networks().size());
  for (const auto& net : model_.networks()) {
    fm.net_budget.push_back(net.bitrate_bps * 3 / 4);
  }

  fast_ = std::move(fm);
}

bool Explorer::genome_hosted_on(std::size_t app, std::size_t gene,
                                std::size_t ecu) const {
  const std::size_t n = ecus_.size();
  const std::size_t replicas =
      static_cast<std::size_t>(std::max(1, apps_[app]->replicas));
  if (replicas >= n) return true;  // host run wraps the whole farm
  for (std::size_t r = 0; r < replicas; ++r) {
    if ((gene + r) % n == ecu) return true;
  }
  return false;
}

bool Explorer::fast_feasible(const Genome& genome) const {
  if (fast_.static_error) return false;
  const std::size_t necus = ecus_.size();

  // Host admissibility over each replica run.
  for (std::size_t a = 0; a < genome.size(); ++a) {
    const std::size_t replicas = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(1, apps_[a]->replicas)), necus);
    for (std::size_t r = 0; r < replicas; ++r) {
      if (fast_.app_ecu_ok[a * necus + (genome[a] + r) % necus] == 0) {
        return false;
      }
    }
  }

  // (c) Per-ECU capacity + schedulability. Apps are gathered in name-sorted
  // order so the utilization sum and the sched_memo_ key both match the
  // verifier's apps_on() traversal exactly.
  std::vector<const model::AppDef*> defs;
  defs.reserve(apps_.size());
  for (std::size_t e = 0; e < necus; ++e) {
    defs.clear();
    std::size_t memory = 0;
    double utilization = 0.0;
    for (const std::size_t a : apps_by_name_) {
      if (!genome_hosted_on(a, genome[a], e)) continue;
      defs.push_back(apps_[a]);
      memory += apps_[a]->memory_bytes;
      utilization += apps_[a]->utilization_on(ecus_[e]->mips);
    }
    if (defs.empty()) continue;
    if (memory > ecus_[e]->memory_bytes) return false;       // memory.capacity
    if (defs.size() > 1 && !ecus_[e]->has_mmu) return false;  // mmu-required
    const double capacity = std::max(1, ecus_[e]->cores);
    if (utilization > capacity) return false;  // cpu.overload
    if (!sched_memo_(*ecus_[e], defs, nullptr)) return false;
  }

  // Network pair verdicts + stream bandwidth budget. Replica loops are NOT
  // capped at |ecus| — the verifier iterates the placement's host list, and
  // without a static redundancy error the run never wraps, so the loop count
  // equals the host count.
  std::vector<std::uint64_t> load(model_.networks().size(), 0);
  for (std::size_t i = 0; i < interface_info_.size(); ++i) {
    const InterfaceInfo& info = interface_info_[i];
    if (info.provider_app == kNoApp) continue;
    const std::size_t pg = genome[info.provider_app];
    const std::size_t preplicas = static_cast<std::size_t>(
        std::max(1, apps_[info.provider_app]->replicas));
    for (const std::size_t consumer : info.consumer_apps) {
      if (consumer == kNoApp) continue;
      const std::size_t cg = genome[consumer];
      const std::size_t creplicas =
          static_cast<std::size_t>(std::max(1, apps_[consumer]->replicas));
      for (std::size_t p = 0; p < preplicas; ++p) {
        const std::size_t pe = (pg + p) % necus;
        for (std::size_t c = 0; c < creplicas; ++c) {
          const std::size_t ce = (cg + c) % necus;
          if (pe == ce) continue;
          const PairVerdict& verdict =
              fast_.pairs[(i * necus + pe) * necus + ce];
          if (verdict.fatal) return false;
          if (verdict.bw_net >= 0) {
            load[static_cast<std::size_t>(verdict.bw_net)] += info.stream_bw;
          }
        }
      }
    }
  }
  for (std::size_t k = 0; k < load.size(); ++k) {
    if (load[k] > fast_.net_budget[k]) return false;  // network.bandwidth
  }
  return true;
}

double Explorer::genome_soft_cost(const Genome& genome) const {
  double total = 0.0;

  // Mirrors soft_cost() term by term; per-ECU sums walk apps_by_name_, the
  // same order Assignment::apps_on yields, so the arithmetic is bit-equal.
  double max_util = 0.0;
  double min_util = std::numeric_limits<double>::infinity();
  std::size_t used = 0;
  for (std::size_t e = 0; e < ecus_.size(); ++e) {
    double util = 0.0;
    bool any = false;
    for (const std::size_t a : apps_by_name_) {
      if (!genome_hosted_on(a, genome[a], e)) continue;
      any = true;
      util += apps_[a]->utilization_on(ecus_[e]->mips);
    }
    if (any) {
      ++used;
      max_util = std::max(max_util, util);
      min_util = std::min(min_util, util);
    }
  }
  total += weights_.per_ecu * static_cast<double>(used);
  if (used > 1) total += weights_.load_imbalance * (max_util - min_util);

  const std::size_t n = ecus_.size();
  for (const InterfaceInfo& info : interface_info_) {
    if (info.provider_app == kNoApp) continue;
    const std::size_t pg = genome[info.provider_app];
    const std::size_t preplicas = static_cast<std::size_t>(
        std::max(1, apps_[info.provider_app]->replicas));
    for (const std::size_t consumer : info.consumer_apps) {
      if (consumer == kNoApp) continue;
      const std::size_t cg = genome[consumer];
      const std::size_t creplicas =
          static_cast<std::size_t>(std::max(1, apps_[consumer]->replicas));
      for (std::size_t p = 0; p < preplicas; ++p) {
        for (std::size_t c = 0; c < creplicas; ++c) {
          if ((pg + p) % n == (cg + c) % n) continue;
          total += info.pair_cost;
        }
      }
    }
  }
  return total;
}

double Explorer::evaluate_genome(const Genome& genome) const {
  if (!cache_enabled_) return genome_cost(genome);
  return fast_feasible(genome)
             ? genome_soft_cost(genome)
             : weights_.infeasible_penalty + genome_soft_cost(genome);
}

std::vector<std::string> Explorer::hosts_for(std::size_t app_index,
                                             std::size_t ecu_index) const {
  const int replicas = std::max(1, apps_[app_index]->replicas);
  std::vector<std::string> hosts;
  for (int r = 0; r < replicas; ++r) {
    hosts.push_back(
        ecus_[(ecu_index + static_cast<std::size_t>(r)) % ecus_.size()]
            ->name);
  }
  return hosts;
}

model::Assignment Explorer::decode(const Genome& genome) const {
  model::Assignment assignment;
  for (std::size_t i = 0; i < genome.size(); ++i) {
    assignment.placement[apps_[i]->name] = hosts_for(i, genome[i]);
  }
  return assignment;
}

bool Explorer::feasible(const model::Assignment& assignment) const {
  return !model::Verifier::has_errors(
      verifier_.verify_assignment(model_, assignment));
}

double Explorer::soft_cost(const model::Assignment& assignment) const {
  double total = 0.0;

  // Powered ECUs and utilization spread.
  double max_util = 0.0;
  double min_util = std::numeric_limits<double>::infinity();
  std::size_t used = 0;
  for (const auto* ecu : ecus_) {
    const auto apps = assignment.apps_on(ecu->name);
    double util = 0.0;
    for (const auto& app_name : apps) {
      const model::AppDef* app = model_.app(app_name);
      if (app != nullptr) util += app->utilization_on(ecu->mips);
    }
    if (!apps.empty()) {
      ++used;
      max_util = std::max(max_util, util);
      min_util = std::min(min_util, util);
    }
  }
  total += weights_.per_ecu * static_cast<double>(used);
  if (used > 1) total += weights_.load_imbalance * (max_util - min_util);

  // Communication locality: payload/period rate for cross-ECU pairs.
  for (const auto& info : interface_info_) {
    if (info.provider_app == kNoApp) continue;
    auto provider_it =
        assignment.placement.find(apps_[info.provider_app]->name);
    if (provider_it == assignment.placement.end()) continue;
    for (const std::size_t consumer : info.consumer_apps) {
      auto consumer_it = assignment.placement.find(apps_[consumer]->name);
      if (consumer_it == assignment.placement.end()) continue;
      for (const auto& ph : provider_it->second) {
        for (const auto& ch : consumer_it->second) {
          if (ph == ch) continue;
          total += info.pair_cost;
        }
      }
    }
  }
  return total;
}

double Explorer::cost(const model::Assignment& assignment) const {
  double total = 0.0;
  if (!feasible(assignment)) total += weights_.infeasible_penalty;
  return total + soft_cost(assignment);
}

double Explorer::genome_cost(const Genome& genome) const {
  return cost(decode(genome));
}

double Explorer::cached_genome_cost(
    const Genome& genome, std::atomic<std::uint64_t>* hits) const {
  if (!cache_enabled_) return genome_cost(genome);
  CacheShard& shard = cache_[GenomeHash{}(genome) % kCacheShards];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(genome);
    if (it != shard.entries.end() && it->second.has_cost) {
      if (hits != nullptr) hits->fetch_add(1, std::memory_order_relaxed);
      return it->second.cost;
    }
  }
  // Compute outside the shard lock (evaluation dominates); a racing
  // duplicate computation stores the identical pure-function value. The
  // genome-native path yields the same bits as cost(decode(genome)).
  const bool feas = fast_feasible(genome);
  const double c = feas ? genome_soft_cost(genome)
                        : weights_.infeasible_penalty + genome_soft_cost(genome);
  std::lock_guard<std::mutex> lock(shard.mutex);
  CacheEntry& entry = shard.entries[genome];
  entry.cost = c;
  entry.has_cost = true;
  entry.feasible = feas;
  entry.has_feasible = true;
  return c;
}

bool Explorer::cached_feasible(const Genome& genome,
                               std::atomic<std::uint64_t>* hits) const {
  if (!cache_enabled_) return feasible(decode(genome));
  CacheShard& shard = cache_[GenomeHash{}(genome) % kCacheShards];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(genome);
    if (it != shard.entries.end() && it->second.has_feasible) {
      if (hits != nullptr) hits->fetch_add(1, std::memory_order_relaxed);
      return it->second.feasible;
    }
  }
  const bool feas = fast_feasible(genome);
  std::lock_guard<std::mutex> lock(shard.mutex);
  CacheEntry& entry = shard.entries[genome];
  entry.feasible = feas;
  entry.has_feasible = true;
  return feas;
}

void Explorer::clear_cache() {
  for (CacheShard& shard : cache_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.clear();
  }
  for (SchedShard& shard : sched_cache_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.clear();
  }
}

std::size_t Explorer::cache_size() const {
  std::size_t total = 0;
  for (CacheShard& shard : cache_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

// --- Incremental soft cost ---------------------------------------------------

/// Maintains per-ECU utilization/app counts and per-interface communication
/// contributions for one genome, recomputing only what a single-gene move
/// touches. Every maintained term is recomputed from scratch (never
/// accumulated via +/- deltas), so the state is a pure function of the
/// current genome — chains stay deterministic and drift-free no matter how
/// many moves were applied or reverted.
class Explorer::SoftCostState {
 public:
  SoftCostState(const Explorer& explorer, Genome genome)
      : explorer_(explorer),
        genome_(std::move(genome)),
        util_(explorer.ecus_.size(), 0.0),
        app_count_(explorer.ecus_.size(), 0),
        contrib_(explorer.interface_info_.size(), 0.0),
        touched_(explorer.ecus_.size(), 0) {
    for (std::size_t e = 0; e < util_.size(); ++e) recompute_ecu(e);
    for (std::size_t i = 0; i < contrib_.size(); ++i) recompute_interface(i);
  }

  const Genome& genome() const { return genome_; }

  /// Re-hosts `app` on the ECU run starting at `gene`; O(touched ECUs x apps
  /// + touched interfaces x replica pairs) instead of a full re-score.
  void move(std::size_t app, std::size_t gene) {
    mark_hosts(app, genome_[app]);
    mark_hosts(app, gene);
    genome_[app] = gene;
    for (std::size_t e = 0; e < touched_.size(); ++e) {
      if (touched_[e] != 0) {
        recompute_ecu(e);
        touched_[e] = 0;
      }
    }
    for (const std::size_t i : explorer_.app_interfaces_[app]) {
      recompute_interface(i);
    }
  }

  /// Soft cost of the current genome (no infeasibility penalty).
  double total() const {
    std::size_t used = 0;
    double max_util = 0.0;
    double min_util = std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < util_.size(); ++e) {
      if (app_count_[e] > 0) {
        ++used;
        max_util = std::max(max_util, util_[e]);
        min_util = std::min(min_util, util_[e]);
      }
    }
    double total = explorer_.weights_.per_ecu * static_cast<double>(used);
    if (used > 1) {
      total += explorer_.weights_.load_imbalance * (max_util - min_util);
    }
    for (const double contribution : contrib_) total += contribution;
    return total;
  }

 private:
  std::size_t replicas_of(std::size_t app) const {
    return static_cast<std::size_t>(
        std::max(1, explorer_.apps_[app]->replicas));
  }

  bool hosted_on(std::size_t app, std::size_t ecu) const {
    const std::size_t n = explorer_.ecus_.size();
    const std::size_t replicas = replicas_of(app);
    if (replicas >= n) return true;  // host run wraps the whole farm
    const std::size_t gene = genome_[app];
    for (std::size_t r = 0; r < replicas; ++r) {
      if ((gene + r) % n == ecu) return true;
    }
    return false;
  }

  void mark_hosts(std::size_t app, std::size_t gene) {
    const std::size_t n = explorer_.ecus_.size();
    const std::size_t replicas = std::min(replicas_of(app), n);
    for (std::size_t r = 0; r < replicas; ++r) touched_[(gene + r) % n] = 1;
  }

  void recompute_ecu(std::size_t ecu) {
    double util = 0.0;
    int count = 0;
    for (const std::size_t app : explorer_.apps_by_name_) {
      if (hosted_on(app, ecu)) {
        util += explorer_.apps_[app]->utilization_on(explorer_.ecus_[ecu]->mips);
        ++count;
      }
    }
    util_[ecu] = util;
    app_count_[ecu] = count;
  }

  void recompute_interface(std::size_t index) {
    const InterfaceInfo& info = explorer_.interface_info_[index];
    double contribution = 0.0;
    if (info.provider_app != kNoApp) {
      const std::size_t n = explorer_.ecus_.size();
      const std::size_t provider_gene = genome_[info.provider_app];
      const std::size_t provider_replicas = replicas_of(info.provider_app);
      for (const std::size_t consumer : info.consumer_apps) {
        if (consumer == kNoApp) continue;
        const std::size_t consumer_gene = genome_[consumer];
        const std::size_t consumer_replicas = replicas_of(consumer);
        for (std::size_t p = 0; p < provider_replicas; ++p) {
          for (std::size_t c = 0; c < consumer_replicas; ++c) {
            if ((provider_gene + p) % n == (consumer_gene + c) % n) continue;
            contribution += info.pair_cost;
          }
        }
      }
    }
    contrib_[index] = contribution;
  }

  const Explorer& explorer_;
  Genome genome_;
  std::vector<double> util_;
  std::vector<int> app_count_;
  std::vector<double> contrib_;
  std::vector<char> touched_;  ///< scratch ECU marks for move()
};

namespace {

/// Wall-clock stopwatch for exploration throughput gauges.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

void Explorer::publish_metrics(const ExplorationResult& result,
                               double wall_seconds) const {
  if (metrics_ == nullptr) return;
  const std::string prefix = "dse." + result.strategy + ".";
  metrics_->counter(prefix + "candidates").add(result.candidates_evaluated);
  metrics_->counter(prefix + "cache_hits").add(result.cache_hits);
  if (wall_seconds > 0.0) {
    metrics_->gauge(prefix + "candidates_per_sec")
        .set(static_cast<double>(result.candidates_evaluated) / wall_seconds);
  }
  if (result.candidates_evaluated > 0) {
    metrics_->gauge(prefix + "cache_hit_rate")
        .set(static_cast<double>(result.cache_hits) /
             static_cast<double>(result.candidates_evaluated));
  }
}

// --- Strategies --------------------------------------------------------------

ExplorationResult Explorer::exhaustive(std::uint64_t max_candidates,
                                       std::size_t threads) {
  ExplorationResult result;
  result.strategy = "exhaustive";
  if (apps_.empty() || ecus_.empty()) return result;
  const WallTimer wall;

  const std::uint64_t necus = ecus_.size();
  const std::uint64_t cap = std::max<std::uint64_t>(1, max_candidates);
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < apps_.size() && total < cap; ++i) {
    total = (total > cap / necus) ? cap : total * necus;
  }
  total = std::min(total, cap);

  // Partitioned sweep: each chunk scans a contiguous index range and keeps
  // its earliest minimum; the merge walks chunks in index order, so the
  // winner ties-break exactly like the serial first-minimum-wins loop.
  struct ChunkBest {
    double cost = std::numeric_limits<double>::infinity();
    Genome genome;
  };
  const std::uint64_t grain = std::max<std::uint64_t>(
      64, total / (8 * std::max<std::size_t>(1, threads)));
  const std::uint64_t chunks = (total + grain - 1) / grain;
  std::vector<ChunkBest> bests(static_cast<std::size_t>(chunks));

  const auto sweep_chunk = [&](std::size_t chunk) {
    const std::uint64_t lo = static_cast<std::uint64_t>(chunk) * grain;
    const std::uint64_t hi = std::min(lo + grain, total);
    // Seed the odometer at index `lo` (genome[d] is digit d, base |ecus|).
    Genome genome(apps_.size(), 0);
    std::uint64_t rest = lo;
    for (std::size_t d = 0; d < genome.size() && rest > 0; ++d) {
      genome[d] = static_cast<std::size_t>(rest % necus);
      rest /= necus;
    }
    ChunkBest best;
    for (std::uint64_t k = lo; k < hi; ++k) {
      const double c = evaluate_genome(genome);
      if (c < best.cost) {
        best.cost = c;
        best.genome = genome;
      }
      std::size_t digit = 0;
      while (digit < genome.size()) {
        if (++genome[digit] < necus) break;
        genome[digit] = 0;
        ++digit;
      }
    }
    bests[chunk] = std::move(best);
  };

  sim::ScenarioSweep sweep({.threads = threads});
  sweep.for_each_index(static_cast<std::size_t>(chunks), sweep_chunk);

  result.candidates_evaluated = total;
  const ChunkBest* winner = nullptr;
  for (const ChunkBest& best : bests) {
    if (!best.genome.empty() &&
        (winner == nullptr || best.cost < winner->cost)) {
      winner = &best;
    }
  }
  if (winner != nullptr) {
    result.assignment = decode(winner->genome);
    result.cost = winner->cost;
    result.feasible = winner->cost < weights_.infeasible_penalty;
  }
  publish_metrics(result, wall.seconds());
  return result;
}

ExplorationResult Explorer::greedy() {
  ExplorationResult result;
  result.strategy = "greedy";
  if (apps_.empty() || ecus_.empty()) return result;
  const WallTimer wall;

  // Apps by decreasing worst-case utilization (on the slowest ECU).
  std::uint64_t min_mips = ecus_[0]->mips;
  for (const auto* ecu : ecus_) min_mips = std::min(min_mips, ecu->mips);
  std::vector<std::size_t> order(apps_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return apps_[a]->utilization_on(min_mips) >
           apps_[b]->utilization_on(min_mips);
  });

  Genome genome(apps_.size(), 0);
  model::Assignment partial;
  for (std::size_t app_index : order) {
    // Trial placements rewrite this app's slot in place (map node stays
    // stable) instead of copying the whole partial assignment per ECU.
    auto& hosts = partial.placement[apps_[app_index]->name];
    bool placed = false;
    for (std::size_t e = 0; e < ecus_.size(); ++e) {
      hosts = hosts_for(app_index, e);
      ++result.candidates_evaluated;
      if (feasible(partial)) {
        genome[app_index] = e;
        placed = true;
        break;
      }
    }
    if (!placed) {
      // Leave it on ECU 0; the final cost carries the penalty.
      hosts = hosts_for(app_index, 0);
      genome[app_index] = 0;
    }
  }
  result.assignment = decode(genome);
  result.cost = cost(result.assignment);
  result.feasible = result.cost < weights_.infeasible_penalty;
  publish_metrics(result, wall.seconds());
  return result;
}

ExplorationResult Explorer::simulated_annealing(std::uint64_t iterations,
                                                std::uint64_t seed,
                                                std::size_t chains,
                                                std::size_t threads) {
  ExplorationResult result = greedy();
  result.strategy = "annealing";
  if (apps_.empty() || ecus_.empty()) return result;
  const WallTimer wall;
  chains = std::max<std::size_t>(1, chains);

  // Recover the genome from the greedy assignment.
  Genome start(apps_.size(), 0);
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    const auto it = result.assignment.placement.find(apps_[i]->name);
    if (it != result.assignment.placement.end() && !it->second.empty()) {
      for (std::size_t e = 0; e < ecus_.size(); ++e) {
        if (ecus_[e]->name == it->second.front()) {
          start[i] = e;
          break;
        }
      }
    }
  }

  struct ChainOutcome {
    Genome best;
    std::uint64_t evaluated = 0;
    std::uint64_t hits = 0;
  };
  std::vector<ChainOutcome> outcomes(chains);

  const auto run_chain = [&](sim::ScenarioRun& run) {
    // The run's stream is Random::stream(seed, chain): the outcome depends
    // only on (iterations, seed, chain), never on which thread runs it.
    sim::Random& rng = run.rng;
    ChainOutcome& out = outcomes[run.index];
    std::atomic<std::uint64_t> hits{0};

    SoftCostState state(*this, start);
    Genome current = start;
    const bool start_feasible = cached_feasible(current, &hits);
    double current_cost =
        state.total() + (start_feasible ? 0.0 : weights_.infeasible_penalty);
    out.best = current;
    double best_cost = current_cost;

    double temperature = std::max(1.0, current_cost * 0.1);
    const double cooling = std::pow(
        0.001 / temperature, 1.0 / static_cast<double>(iterations));
    for (std::uint64_t i = 0; i < iterations; ++i) {
      const auto app =
          static_cast<std::size_t>(rng.next_below(current.size()));
      const auto gene =
          static_cast<std::size_t>(rng.next_below(ecus_.size()));
      ++out.evaluated;
      const std::size_t old_gene = current[app];
      if (gene == old_gene) {
        // Identity move: delta == 0 accepts without consuming randomness,
        // matching the serial acceptance rule; nothing to recompute.
        hits.fetch_add(1, std::memory_order_relaxed);
        temperature *= cooling;
        continue;
      }
      state.move(app, gene);
      const bool feas = cached_feasible(state.genome(), &hits);
      const double candidate_cost =
          state.total() + (feas ? 0.0 : weights_.infeasible_penalty);
      const double delta = candidate_cost - current_cost;
      if (delta <= 0 || rng.chance(std::exp(-delta / temperature))) {
        current[app] = gene;
        current_cost = candidate_cost;
        if (candidate_cost < best_cost) {
          out.best = current;
          best_cost = candidate_cost;
        }
      } else {
        state.move(app, old_gene);  // exact revert (terms recomputed)
      }
      temperature *= cooling;
    }
    out.hits = hits.load();
  };

  sim::ScenarioSweep sweep({.seed = seed, .threads = threads});
  sweep.for_each(chains, run_chain);

  // Best-of-chains in chain index order (strict < keeps the lowest chain on
  // ties); the winner is re-scored with the full cost so the reported value
  // matches cost(assignment) bit-for-bit.
  Genome best = start;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const ChainOutcome& out : outcomes) {
    result.candidates_evaluated += out.evaluated;
    result.cache_hits += out.hits;
    const double full = cached_genome_cost(out.best, nullptr);
    if (full < best_cost) {
      best = out.best;
      best_cost = full;
    }
  }
  result.assignment = decode(best);
  result.cost = best_cost;
  result.feasible = best_cost < weights_.infeasible_penalty;
  publish_metrics(result, wall.seconds());
  return result;
}

ExplorationResult Explorer::genetic(std::size_t population,
                                    std::size_t generations,
                                    std::uint64_t seed,
                                    std::size_t threads) {
  ExplorationResult result;
  result.strategy = "genetic";
  if (apps_.empty() || ecus_.empty()) return result;
  const WallTimer wall;

  // One sweep for every generation: its workers start once, not per batch.
  sim::ScenarioSweep sweep({.threads = threads});
  std::atomic<std::uint64_t> hits{0};

  sim::Random rng(seed);
  std::vector<Genome> current(population, Genome(apps_.size(), 0));
  for (auto& genome : current) {
    for (auto& gene : genome) {
      gene = static_cast<std::size_t>(rng.next_below(ecus_.size()));
    }
  }
  std::vector<double> fitness(population);
  result.candidates_evaluated += population;
  sweep.for_each_index(population, [&](std::size_t i) {
    fitness[i] = cached_genome_cost(current[i], &hits);
  });

  Genome best = current[0];
  double best_cost = fitness[0];
  for (std::size_t i = 1; i < population; ++i) {
    if (fitness[i] < best_cost) {
      best = current[i];
      best_cost = fitness[i];
    }
  }

  for (std::size_t gen = 0; gen < generations; ++gen) {
    // Breeding is serial — tournament and mutation draw from the one seeded
    // generator and only read the previous generation's fitness — so the
    // genome sequence is identical for every thread count. Fitness, the
    // expensive verifier-bound part, then fans out with results landing in
    // index-addressed slots.
    std::vector<Genome> children;
    children.reserve(population > 0 ? population - 1 : 0);
    while (children.size() + 1 < population) {
      auto tournament = [&] {
        const auto a = static_cast<std::size_t>(rng.next_below(population));
        const auto b = static_cast<std::size_t>(rng.next_below(population));
        return fitness[a] <= fitness[b] ? a : b;
      };
      const Genome& parent_a = current[tournament()];
      const Genome& parent_b = current[tournament()];
      Genome child(apps_.size());
      for (std::size_t g = 0; g < child.size(); ++g) {
        child[g] = rng.chance(0.5) ? parent_a[g] : parent_b[g];
        if (rng.chance(0.05)) {
          child[g] = static_cast<std::size_t>(rng.next_below(ecus_.size()));
        }
      }
      children.push_back(std::move(child));
    }
    std::vector<double> child_fitness(children.size());
    result.candidates_evaluated += children.size();
    sweep.for_each_index(children.size(), [&](std::size_t i) {
      child_fitness[i] = cached_genome_cost(children[i], &hits);
    });

    // Elitism: the champion as of the start of this generation leads the
    // next pool; the champion update scans children in index order.
    std::vector<Genome> next;
    std::vector<double> next_fitness;
    next.reserve(population);
    next_fitness.reserve(population);
    next.push_back(best);
    next_fitness.push_back(best_cost);
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (child_fitness[i] < best_cost) {
        best = children[i];
        best_cost = child_fitness[i];
      }
      next.push_back(std::move(children[i]));
      next_fitness.push_back(child_fitness[i]);
    }
    current = std::move(next);
    fitness = std::move(next_fitness);
  }
  result.cache_hits = hits.load();
  result.assignment = decode(best);
  result.cost = best_cost;
  result.feasible = best_cost < weights_.infeasible_penalty;
  publish_metrics(result, wall.seconds());
  return result;
}

}  // namespace dynaplat::dse
