#include "platform/recovery.hpp"

#include <algorithm>
#include <limits>

#include "dse/exploration.hpp"
#include "dse/schedulability.hpp"

namespace dynaplat::platform {

namespace {

// Liveness / placement sweep period (the detect step's clock).
constexpr sim::Duration kCheckPeriod = 50 * sim::kMillisecond;
// Post-apply observation window before a plan may commit. Any new deadline
// miss on a target node during the soak rolls the plan back.
constexpr sim::Duration kCommitSoak = 100 * sim::kMillisecond;
// Spacing between consecutive plan steps (bounds reconfiguration burst load
// on the network and the target CPUs).
constexpr sim::Duration kStepSpacing = 1 * sim::kMillisecond;
// Whole-vehicle remap: annealing seed (perturbed per plan) and chains, run
// on the calling thread.
constexpr std::uint64_t kDseSeed = 1;
constexpr std::size_t kDseChains = 2;
constexpr std::size_t kDseThreads = 0;
// Backoff of the retry queue: attempt N waits kRetryBackoff * 2^(N-1),
// capped at RecoveryConfig::retry_max_backoff.
constexpr sim::Duration kRetryBackoff = 100 * sim::kMillisecond;
// Live apps on cores whose utilization exceeds this are remapped too (only
// piggybacked onto a fault-triggered plan, never a plan of its own).
constexpr double kMisplacedUtilThreshold = 1.0;
// Post-placement utilization cap per target core. A nominally-100% packed
// core passes the utilization admission test but misses deadlines in
// practice (dispatch overhead, TT window padding) — the soak gate would
// reject it after the fact; cheaper to never propose it.
constexpr double kPlacementHeadroom = 0.90;

/// True when `label` serves `app`: the plain name or an update-suffixed
/// instance ("App" matches "App" and "App#v2", never "AppX").
bool matches_app(const std::string& label, const std::string& app) {
  if (label == app) return true;
  return label.size() > app.size() && label[app.size()] == '#' &&
         label.compare(0, app.size(), app) == 0;
}

std::string base_app(const std::string& label) {
  const auto pos = label.find('#');
  return pos == std::string::npos ? label : label.substr(0, pos);
}

double core_utilization(const std::vector<dse::AnalysisTask>& tasks) {
  double u = 0.0;
  for (const auto& task : tasks) u += task.utilization();
  return u;
}

}  // namespace

const char* to_string(PlanStatus status) {
  switch (status) {
    case PlanStatus::kPlanning: return "PLANNING";
    case PlanStatus::kApplying: return "APPLYING";
    case PlanStatus::kSoaking: return "SOAKING";
    case PlanStatus::kCommitted: return "COMMITTED";
    case PlanStatus::kRolledBack: return "ROLLED_BACK";
  }
  return "?";
}

RecoveryOrchestrator::RecoveryOrchestrator(DynamicPlatform& platform,
                                           RecoveryConfig config)
    : platform_(platform), config_(config), updates_(platform) {}

RecoveryOrchestrator::~RecoveryOrchestrator() { disengage(); }

void RecoveryOrchestrator::engage() {
  if (engaged_) return;
  engaged_ = true;
  sweeper_ = platform_.simulator().schedule_every(
      platform_.simulator().now() + kCheckPeriod, kCheckPeriod,
      [this] { sweep(); });
}

void RecoveryOrchestrator::disengage() {
  if (!engaged_) return;
  engaged_ = false;
  platform_.simulator().cancel(sweeper_);
  sweeper_ = {};
}

std::vector<std::string> RecoveryOrchestrator::stranded() const {
  std::vector<std::string> out;
  out.reserve(retries_.size());
  for (const auto& [app, state] : retries_) out.push_back(app);
  return out;
}

void RecoveryOrchestrator::coverage_hit(const char* key) {
  sim::Trace* trace = platform_.vehicle_trace();
  if (trace != nullptr) trace->coverage().hit(key);
}

DeploymentSnapshot RecoveryOrchestrator::snapshot(DynamicPlatform& platform) {
  DeploymentSnapshot snap;
  for (const std::string& name : platform.node_names()) {
    PlatformNode* node = platform.node(name);
    if (node == nullptr) continue;
    for (const std::string& label : node->instance_labels()) {
      const AppInstance* inst = node->instance(label);
      if (inst == nullptr) continue;
      DeploymentSnapshot::Entry entry;
      entry.ecu = name;
      entry.label = label;
      entry.running = inst->running;
      entry.active = inst->app != nullptr && inst->app->active();
      snap.entries.push_back(std::move(entry));
    }
  }
  std::sort(snap.entries.begin(), snap.entries.end());
  return snap;
}

void RecoveryOrchestrator::sweep() {
  if (!engaged_ || active_ != nullptr) return;
  std::vector<Displaced> work = collect_displaced();
  if (work.empty()) return;
  plan_and_apply(std::move(work));
}

std::vector<RecoveryOrchestrator::Displaced>
RecoveryOrchestrator::collect_displaced() {
  const sim::Time now = platform_.simulator().now();
  struct LiveSite {
    std::string ecu;
    std::string label;
    std::size_t core = 0;
  };
  std::vector<Displaced> displaced;
  std::vector<std::pair<const model::AppDef*, LiveSite>> live_apps;
  for (const auto& binding : platform_.deployment().bindings) {
    const model::AppDef* def = platform_.system_model().app(binding.app);
    if (def == nullptr) continue;
    // Replicated apps have a warm standby: the RedundancyManager's domain.
    if (def->replicas > 1) continue;
    if (abandoned_set_.count(def->name) > 0) continue;
    auto retry = retries_.find(def->name);
    if (retry != retries_.end() && retry->second.next_due > now) continue;

    LiveSite site;
    std::string dead_host;
    bool parked_on_live = false;  // stopped on a live node: policy, not loss
    for (const std::string& name : platform_.node_names()) {
      PlatformNode* node = platform_.node(name);
      if (node == nullptr) continue;
      for (const std::string& label : node->instance_labels()) {
        if (!matches_app(label, def->name)) continue;
        const AppInstance* inst = node->instance(label);
        if (inst == nullptr) continue;
        if (node->ecu().failed()) {
          dead_host = name;
        } else if (inst->running) {
          site.ecu = name;
          site.label = label;
          site.core = inst->core;
        } else {
          // Someone (degradation shedding, an operator) deliberately
          // stopped this instance on a healthy node — re-hosting it would
          // second-guess that decision and risk duplicates.
          parked_on_live = true;
        }
      }
    }
    if (site.label.empty()) {
      if (!parked_on_live) displaced.push_back(Displaced{def, dead_host, ""});
    } else {
      live_apps.emplace_back(def, std::move(site));
    }
  }
  // Misplaced apps piggyback on a fault-triggered plan only: an otherwise
  // healthy vehicle is not continuously re-shuffled.
  if (!displaced.empty()) {
    for (const auto& [def, site] : live_apps) {
      PlatformNode* node = platform_.node(site.ecu);
      if (node == nullptr) continue;
      const double util = core_utilization(node->analysis_tasks(site.core));
      if (util > kMisplacedUtilThreshold) {
        displaced.push_back(Displaced{def, site.ecu, site.label});
      }
    }
  }
  return displaced;
}

bool RecoveryOrchestrator::admits(
    PlatformNode& node, const model::AppDef& def,
    std::vector<dse::AnalysisTask>* pending) const {
  const model::EcuDef& ecu_def =
      *platform_.system_model().ecu(node.ecu().name());
  if (!model::host_admits(def, ecu_def)) return false;
  std::vector<dse::AnalysisTask> incoming = dse::tasks_on(def, ecu_def.mips);
  // Admission is tested against the least-loaded core plus whatever this
  // plan already promised to the node.
  std::size_t best_core = 0;
  double best_util = std::numeric_limits<double>::max();
  for (std::size_t core = 0; core < node.ecu().core_count(); ++core) {
    const double util = core_utilization(node.analysis_tasks(core));
    if (util < best_util) {
      best_util = util;
      best_core = core;
    }
  }
  std::vector<dse::AnalysisTask> existing = node.analysis_tasks(best_core);
  existing.insert(existing.end(), pending->begin(), pending->end());
  double post_util = 0.0;
  for (const auto& task : existing) post_util += task.utilization();
  for (const auto& task : incoming) post_util += task.utilization();
  if (post_util > kPlacementHeadroom) return false;
  if (!dse::admit(existing, incoming).admitted) return false;
  if (def.app_class == model::AppClass::kDeterministic) {
    // DA targets must also pass backend table synthesis + simulation
    // validation (Sec. 3.1 "CPU") before the plan relies on them. With
    // the backend unreachable, the resilient client's fallback ladder
    // decides instead: a cached artifact or the ECU-local admission fast
    // path lets recovery proceed degraded (the RTA test above already
    // passed) rather than stranding the vehicle; only a genuine
    // infeasibility — or no fallback at all — rejects the placement.
    std::vector<dse::AnalysisTask> all = existing;
    all.insert(all.end(), incoming.begin(), incoming.end());
    const auto outcome = platform_.backend_client().synthesize(
        all, ecu_def.mips, ::dynaplat::backend::Criticality::kRecovery);
    if (!outcome.ok) return false;
    if (outcome.source ==
            ::dynaplat::backend::BackendOutcome::Source::kBackend &&
        (!outcome.artifact.feasible || !outcome.artifact.validated)) {
      return false;
    }
  }
  pending->insert(pending->end(), incoming.begin(), incoming.end());
  return true;
}

std::map<std::string, std::string> RecoveryOrchestrator::solve_placement(
    const std::vector<Displaced>& work, std::uint64_t* candidates) {
  std::map<std::string, std::string> out;
  std::set<std::string> movable;
  for (const Displaced& item : work) movable.insert(item.def->name);

  // Sub-model of the surviving vehicle: live ECUs derated by their fixed
  // (non-movable) load, movable apps stripped of interface edges (their
  // peers are not part of the sub-model).
  model::SystemModel sub;
  for (const auto& net : platform_.system_model().networks()) {
    sub.add_network(net);
  }
  std::vector<std::string> live;
  for (const auto& ecu_def : platform_.system_model().ecus()) {
    PlatformNode* node = platform_.node(ecu_def.name);
    if (node == nullptr || node->ecu().failed()) continue;
    live.push_back(ecu_def.name);
    model::EcuDef derated = ecu_def;
    double fixed_util = 0.0;
    std::size_t fixed_memory = 0;
    for (const std::string& label : node->instance_labels()) {
      const AppInstance* inst = node->instance(label);
      if (inst == nullptr || movable.count(base_app(label)) > 0) continue;
      fixed_memory += inst->def.memory_bytes;
      if (inst->running) {
        fixed_util += inst->def.utilization_on(ecu_def.mips);
      }
    }
    const double headroom = std::max(0.0, 1.0 - fixed_util);
    derated.mips = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(ecu_def.mips) * headroom));
    derated.memory_bytes = ecu_def.memory_bytes > fixed_memory
                               ? ecu_def.memory_bytes - fixed_memory
                               : 0;
    sub.add_ecu(derated);
  }
  if (live.empty()) return out;
  for (const Displaced& item : work) {
    model::AppDef app = *item.def;
    app.provides.clear();
    app.consumes.clear();
    app.min_versions.clear();
    app.replicas = 1;
    sub.add_app(app);
  }

  dse::Explorer explorer(sub);
  // The seed is perturbed per plan: a placement the soak gate rejected must
  // not be re-proposed verbatim on every retry.
  dse::ExplorationResult result = explorer.simulated_annealing(
      config_.dse_iterations,
      kDseSeed + static_cast<std::uint64_t>(next_plan_id_), kDseChains,
      kDseThreads);
  *candidates += result.candidates_evaluated;
  if (!result.feasible) {
    result = explorer.greedy();
    *candidates += result.candidates_evaluated;
  }

  // Admission-check every DSE target on the *real* nodes; apps the DSE
  // could not serve fall back to first-fit-decreasing over the survivors.
  std::vector<const model::AppDef*> order;
  order.reserve(work.size());
  for (const Displaced& item : work) order.push_back(item.def);
  std::stable_sort(order.begin(), order.end(),
                   [](const model::AppDef* a, const model::AppDef* b) {
                     const double ua = a->utilization_on(1'000);
                     const double ub = b->utilization_on(1'000);
                     if (ua != ub) return ua > ub;
                     return a->name < b->name;
                   });
  std::map<std::string, std::vector<dse::AnalysisTask>> pending;
  for (const model::AppDef* def : order) {
    std::string preferred;
    if (result.feasible) {
      auto it = result.assignment.placement.find(def->name);
      if (it != result.assignment.placement.end() && !it->second.empty()) {
        preferred = it->second.front();
      }
    }
    auto try_target = [&](const std::string& name) {
      PlatformNode* node = platform_.node(name);
      if (node == nullptr || node->ecu().failed()) return false;
      if (!admits(*node, *def, &pending[name])) return false;
      out[def->name] = name;
      return true;
    };
    if (!preferred.empty() && try_target(preferred)) continue;
    for (const std::string& name : live) {
      if (name == preferred) continue;
      if (try_target(name)) break;
    }
  }
  return out;
}

void RecoveryOrchestrator::plan_and_apply(std::vector<Displaced> work) {
  coverage_hit("recovery.detect");
  const sim::Time now = platform_.simulator().now();
  auto active = std::make_unique<Active>();
  RecoveryPlan& plan = active->plan;
  plan.id = next_plan_id_++;
  plan.fault_detected_at = now;
  plan.pre_plan = snapshot(platform_);

  std::uint64_t candidates = 0;
  const auto placement = solve_placement(work, &candidates);
  plan.dse_candidates = candidates;
  coverage_hit("recovery.remap");

  for (const Displaced& item : work) {
    auto it = placement.find(item.def->name);
    if (it == placement.end()) {
      plan.stranded.push_back(item.def->name);
      strand(item.def->name, item.from_ecu);
      continue;
    }
    // A "misplaced" app the DSE kept on its current host is fine where it
    // is — no step.
    if (!item.live_label.empty() && it->second == item.from_ecu) continue;
    RecoveryStep step;
    step.kind =
        item.live_label.empty() ? StepKind::kColdStart : StepKind::kMigration;
    step.app = item.def->name;
    step.label = item.live_label.empty() ? item.def->name : item.live_label;
    step.from_ecu = item.from_ecu;
    step.to_ecu = it->second;
    step.app_class = item.def->app_class;
    step.asil = item.def->asil;
    plan.steps.push_back(std::move(step));
  }
  if (plan.steps.empty()) return;  // only stranding bookkeeping this sweep

  // Criticality order: deterministic before best-effort, higher ASIL and
  // heavier apps first, name as the deterministic tie-break.
  const auto& model = platform_.system_model();
  std::stable_sort(
      plan.steps.begin(), plan.steps.end(),
      [&model](const RecoveryStep& a, const RecoveryStep& b) {
        const bool da_a = a.app_class == model::AppClass::kDeterministic;
        const bool da_b = b.app_class == model::AppClass::kDeterministic;
        if (da_a != da_b) return da_a;
        if (a.asil != b.asil) return a.asil > b.asil;
        const model::AppDef* def_a = model.app(a.app);
        const model::AppDef* def_b = model.app(b.app);
        const double ua = def_a != nullptr ? def_a->utilization_on(1'000) : 0;
        const double ub = def_b != nullptr ? def_b->utilization_on(1'000) : 0;
        if (ua != ub) return ua > ub;
        return a.app < b.app;
      });

  plan.status = PlanStatus::kApplying;
  plan.apply_started_at = now;
  if (sim::Trace* trace = platform_.vehicle_trace()) {
    if (trace->enabled(sim::TraceCategory::kPlatform)) {
      trace->record(now, sim::TraceCategory::kPlatform, "recovery",
                    "plan#" + std::to_string(plan.id),
                    static_cast<std::int64_t>(plan.steps.size()),
                    obs::EventType::kBegin);
    }
  }
  active_ = std::move(active);
  apply_step(0);
}

void RecoveryOrchestrator::apply_step(std::size_t index) {
  if (active_ == nullptr) return;
  RecoveryPlan& plan = active_->plan;
  if (config_.inject_fail_after_steps >= 0 &&
      static_cast<int>(active_->journal.size()) >=
          config_.inject_fail_after_steps) {
    rollback("injected fault after " +
             std::to_string(active_->journal.size()) + " steps");
    return;
  }
  if (index >= plan.steps.size()) {
    begin_soak();
    return;
  }
  RecoveryStep& step = plan.steps[index];
  coverage_hit("recovery.apply");
  PlatformNode* to = platform_.node(step.to_ecu);
  if (to == nullptr || to->ecu().failed()) {
    rollback("target " + step.to_ecu + " died mid-plan");
    return;
  }
  const int plan_id = plan.id;
  auto continue_with_next = [this, plan_id, index] {
    platform_.simulator().schedule_in(
        kStepSpacing, [this, plan_id, index] {
          if (active_ == nullptr || active_->plan.id != plan_id) return;
          apply_step(index + 1);
        });
  };
  if (sim::Trace* trace = platform_.vehicle_trace()) {
    if (trace->enabled(sim::TraceCategory::kPlatform)) {
      trace->record(platform_.simulator().now(),
                    sim::TraceCategory::kPlatform, "recovery",
                    "step:" + step.app + "->" + step.to_ecu);
    }
  }
  if (step.kind == StepKind::kColdStart) {
    const model::AppDef* def = platform_.system_model().app(step.app);
    AppFactory factory = platform_.factory_for(step.app);
    std::string why;
    if (def == nullptr || !factory) {
      rollback("no package for '" + step.app + "'");
      return;
    }
    if (!to->install(*def, factory, &why)) {
      rollback("install of " + step.app + " on " + step.to_ecu +
               " failed: " + why);
      return;
    }
    if (!to->start(step.app)) {
      to->uninstall(step.app);
      rollback("start of " + step.app + " on " + step.to_ecu + " failed");
      return;
    }
    JournalEntry entry;
    entry.kind = StepKind::kColdStart;
    entry.app = step.app;
    entry.label = step.app;
    entry.from_ecu = step.from_ecu;
    entry.to_ecu = step.to_ecu;
    entry.def = *def;
    active_->journal.push_back(std::move(entry));
    step.applied = true;
    continue_with_next();
    return;
  }
  // Live move: staged cross-node migration, journaled with the app state
  // captured *before* the move so rollback can restore it on the origin.
  PlatformNode* from = platform_.node(step.from_ecu);
  AppInstance* inst = from != nullptr ? from->instance(step.label) : nullptr;
  if (from == nullptr || from->ecu().failed() || inst == nullptr ||
      inst->app == nullptr) {
    rollback("origin instance '" + step.label + "' on " + step.from_ecu +
             " vanished");
    return;
  }
  JournalEntry entry;
  entry.kind = StepKind::kMigration;
  entry.app = step.app;
  entry.label = step.label;
  entry.from_ecu = step.from_ecu;
  entry.to_ecu = step.to_ecu;
  entry.def = inst->def;
  entry.state = inst->app->serialize_state();
  updates_.staged_migration(
      *from, step.label, *to, UpdateConfig{},
      [this, plan_id, index, continue_with_next,
       entry = std::move(entry)](const UpdateReport& report) mutable {
        if (active_ == nullptr || active_->plan.id != plan_id) return;
        if (!report.success) {
          // The migration protocol already reverted itself; only the
          // earlier journaled steps need undoing.
          rollback("migration of " + entry.app + " failed: " +
                   report.reason);
          return;
        }
        active_->plan.steps[index].applied = true;
        active_->journal.push_back(std::move(entry));
        continue_with_next();
      });
}

void RecoveryOrchestrator::begin_soak() {
  coverage_hit("recovery.soak");
  RecoveryPlan& plan = active_->plan;
  plan.status = PlanStatus::kSoaking;
  for (const RecoveryStep& step : plan.steps) {
    if (!step.applied) continue;
    PlatformNode* node = platform_.node(step.to_ecu);
    if (node != nullptr) {
      active_->fault_baseline[step.to_ecu] = node->monitor().faults().size();
    }
  }
  const int plan_id = plan.id;
  platform_.simulator().schedule_in(kCommitSoak, [this, plan_id] {
    if (active_ == nullptr || active_->plan.id != plan_id) return;
    for (const RecoveryStep& step : active_->plan.steps) {
      if (!step.applied) continue;
      PlatformNode* node = platform_.node(step.to_ecu);
      if (node == nullptr || node->ecu().failed()) {
        rollback("target " + step.to_ecu + " failed during soak");
        return;
      }
      const AppInstance* inst = node->instance(step.app);
      if (inst == nullptr || !inst->running) {
        rollback("'" + step.app + "' not running on " + step.to_ecu +
                 " after soak");
        return;
      }
    }
    for (const auto& [ecu, baseline] : active_->fault_baseline) {
      PlatformNode* node = platform_.node(ecu);
      if (node == nullptr) continue;
      const auto& faults = node->monitor().faults();
      for (std::size_t i = baseline; i < faults.size(); ++i) {
        if (faults[i].kind == "deadline_miss") {
          rollback("deadline misses on " + ecu + " during soak");
          return;
        }
      }
    }
    commit();
  });
}

void RecoveryOrchestrator::commit() {
  coverage_hit("recovery.commit");
  RecoveryPlan& plan = active_->plan;
  plan.status = PlanStatus::kCommitted;
  plan.finished_at = platform_.simulator().now();
  plan.reason = "committed";
  std::set<std::string> involved;
  for (const RecoveryStep& step : plan.steps) {
    retries_.erase(step.app);
    if (!step.from_ecu.empty()) involved.insert(step.from_ecu);
    involved.insert(step.to_ecu);
  }
  if (degradation_ != nullptr) {
    for (const std::string& ecu : involved) {
      PlatformNode* node = platform_.node(ecu);
      if (node != nullptr && !node->ecu().failed()) {
        degradation_->report_recovery_committed(ecu);
      }
    }
  }
  if (sim::Trace* trace = platform_.vehicle_trace()) {
    trace->metrics().counter("recovery.plans_committed").add();
    trace->metrics()
        .counter("recovery.steps_applied")
        .add(active_->journal.size());
    trace->metrics()
        .histogram("recovery.latency_ms")
        .observe(static_cast<double>(plan.finished_at -
                                     plan.fault_detected_at) /
                 static_cast<double>(sim::kMillisecond));
    if (trace->enabled(sim::TraceCategory::kPlatform)) {
      trace->record(plan.finished_at, sim::TraceCategory::kPlatform,
                    "recovery", "plan#" + std::to_string(plan.id), 0,
                    obs::EventType::kEnd);
    }
  }
  finish_plan();
}

void RecoveryOrchestrator::rollback(const std::string& reason) {
  coverage_hit("recovery.rollback");
  RecoveryPlan& plan = active_->plan;
  plan.reason = reason;
  bool exact = true;
  for (auto it = active_->journal.rbegin(); it != active_->journal.rend();
       ++it) {
    if (it->kind == StepKind::kColdStart) {
      PlatformNode* node = platform_.node(it->to_ecu);
      // A target that died mid-plan needs no undo: its bookkeeping is
      // unreachable either way, and the live-topology comparison below
      // excludes it.
      if (node != nullptr && !node->ecu().failed()) {
        node->uninstall(it->app);
      }
      continue;
    }
    // Migration undo: rebuild the instance on its origin (shadow), restore
    // the journaled state, then the same atomic handover — backwards.
    PlatformNode* from = platform_.node(it->from_ecu);
    PlatformNode* to = platform_.node(it->to_ecu);
    if (from == nullptr || from->ecu().failed()) {
      // The origin is gone: keep the migrated copy alive rather than
      // killing the only instance (availability beats bookkeeping).
      exact = false;
      continue;
    }
    const std::string suffix = it->label.size() > it->app.size()
                                   ? it->label.substr(it->app.size())
                                   : "";
    std::string why;
    AppFactory factory = platform_.factory_for(it->app);
    if (!factory || !from->install(it->def, factory, &why, suffix) ||
        !from->start(it->label, /*shadow=*/true)) {
      exact = false;
      continue;
    }
    AppInstance* inst = from->instance(it->label);
    if (inst != nullptr && inst->app != nullptr) {
      inst->app->restore_state(it->state);
    }
    if (to != nullptr && !to->ecu().failed()) to->demote(it->app);
    from->promote(it->label);
    if (to != nullptr && !to->ecu().failed()) to->uninstall(it->app);
  }
  plan.status = PlanStatus::kRolledBack;
  plan.finished_at = platform_.simulator().now();
  // Exactness is judged over the nodes still alive *now*: entries on a node
  // that died between plan start and rollback are unrestorable no matter
  // what the orchestrator does, and blaming the rollback for them would
  // flag every mid-plan ECU loss as a broken transaction.
  auto live_subset = [this](const DeploymentSnapshot& snap) {
    DeploymentSnapshot out;
    for (const auto& entry : snap.entries) {
      PlatformNode* node = platform_.node(entry.ecu);
      if (node != nullptr && !node->ecu().failed()) out.entries.push_back(entry);
    }
    return out;
  };
  plan.restored_exactly =
      exact && live_subset(snapshot(platform_)) == live_subset(plan.pre_plan);
  // Everything the plan tried to move goes back through the retry queue.
  for (const RecoveryStep& step : plan.steps) {
    strand(step.app, step.from_ecu);
  }
  if (sim::Trace* trace = platform_.vehicle_trace()) {
    trace->metrics().counter("recovery.plans_rolled_back").add();
    if (trace->enabled(sim::TraceCategory::kPlatform)) {
      trace->record(plan.finished_at, sim::TraceCategory::kPlatform,
                    "recovery", "plan#" + std::to_string(plan.id), 0,
                    obs::EventType::kEnd);
    }
  }
  finish_plan();
}

void RecoveryOrchestrator::finish_plan() {
  plans_.push_back(std::move(active_->plan));
  active_.reset();
}

void RecoveryOrchestrator::strand(const std::string& app,
                                  const std::string& origin_ecu) {
  if (abandoned_set_.count(app) > 0) return;
  RetryState& retry = retries_[app];
  retry.attempts += 1;
  if (!origin_ecu.empty()) retry.origin_ecu = origin_ecu;
  if (sim::Trace* trace = platform_.vehicle_trace()) {
    trace->metrics().counter("recovery.stranded").add();
  }
  if (retry.attempts > config_.retry_budget) {
    const std::string origin = retry.origin_ecu;
    abandoned_.push_back(app);
    abandoned_set_.insert(app);
    retries_.erase(app);
    if (sim::Trace* trace = platform_.vehicle_trace()) {
      trace->metrics().counter("recovery.abandoned").add();
    }
    if (degradation_ != nullptr && !origin.empty()) {
      degradation_->report_recovery_exhausted(origin);
    }
    return;
  }
  const int shift = std::min(retry.attempts - 1, 16);
  const sim::Duration backoff =
      std::min(kRetryBackoff * (sim::Duration{1} << shift),
               config_.retry_max_backoff);
  retry.next_due = platform_.simulator().now() + backoff;
}

}  // namespace dynaplat::platform
