// Transactional self-healing (paper Sec. 2.3 + 3.3).
//
// The ReconfigurationManager re-hosts dead apps one by one, greedily, with
// no way back: half-applied reconfigurations are simply the new state. The
// RecoveryOrchestrator treats a fault event as a *transaction* instead:
//
//   detect -> plan -> apply -> soak -> commit | rollback
//
// On ECU loss it snapshots the surviving topology, asks the DSE explorer
// (Sec. 2.3 "the final mapping might only be applied in the vehicle on the
// road") for a whole-vehicle remap of every displaced app — and, while it
// is at it, of demonstrably misplaced ones sitting on overloaded cores —
// admission-checks each target, and applies the steps in criticality order
// (deterministic/ASIL-high first). Live apps move through the staged
// cross-node migration protocol (UpdateManager::staged_migration), so
// service ownership never gaps; dead apps cold-start on their new hosts.
//
// Every applied step is journaled. If any step fails, or the soak window
// after apply observes new deadline misses, the *whole plan* rolls back to
// the journaled pre-plan deployment — the vehicle is never left in a state
// no one planned. Apps that cannot be placed join a capped-backoff retry
// queue; a committed plan lifts involved kDegraded verdicts back to kOk
// (DegradationManager::report_recovery_committed), while an exhausted
// retry budget escalates the origin ECU to sticky limp-home.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "platform/degradation.hpp"
#include "platform/update.hpp"

namespace dynaplat::platform {

struct RecoveryConfig {
  /// Simulated-annealing budget of the whole-vehicle remap.
  std::uint64_t dse_iterations = 2'000;
  /// Plan attempts per app before the orchestrator gives up and escalates
  /// the app's origin ECU to limp-home.
  int retry_budget = 4;
  /// Cap of the retry queue's exponential backoff.
  sim::Duration retry_max_backoff = 1'600 * sim::kMillisecond;
  /// Test hook: abort the apply phase once this many steps have been
  /// journaled (0 = before the first step), forcing a whole-plan rollback.
  /// -1 = off.
  int inject_fail_after_steps = -1;
};

enum class PlanStatus : std::uint8_t {
  kPlanning,
  kApplying,
  kSoaking,
  kCommitted,
  kRolledBack,
};

const char* to_string(PlanStatus status);

enum class StepKind : std::uint8_t {
  kColdStart,  ///< app had no live instance: install + start on the target
  kMigration,  ///< app is alive but misplaced: staged cross-node migration
};

struct RecoveryStep {
  StepKind kind = StepKind::kColdStart;
  std::string app;
  /// Instance label on the origin node (migrations; may carry a "#vN"
  /// update suffix). Equals `app` for cold starts.
  std::string label;
  std::string from_ecu;  ///< dead or overloaded origin ("" if unknown)
  std::string to_ecu;
  model::AppClass app_class = model::AppClass::kNonDeterministic;
  model::Asil asil = model::Asil::kQM;
  bool applied = false;
};

/// Value snapshot of the vehicle-wide deployment: every hosted instance on
/// every node with its liveness flags, sorted for bit-exact comparison.
/// This is what a rolled-back plan must restore.
struct DeploymentSnapshot {
  struct Entry {
    std::string ecu;
    std::string label;
    bool running = false;
    bool active = false;
    bool operator==(const Entry& o) const {
      return ecu == o.ecu && label == o.label && running == o.running &&
             active == o.active;
    }
    bool operator<(const Entry& o) const {
      if (ecu != o.ecu) return ecu < o.ecu;
      return label < o.label;
    }
  };
  std::vector<Entry> entries;
  bool operator==(const DeploymentSnapshot& o) const {
    return entries == o.entries;
  }
};

struct RecoveryPlan {
  int id = 0;
  PlanStatus status = PlanStatus::kPlanning;
  sim::Time fault_detected_at = 0;
  sim::Time apply_started_at = 0;
  sim::Time finished_at = 0;
  std::vector<RecoveryStep> steps;
  /// Apps the plan could not place (admission or DSE infeasibility); they
  /// enter the retry queue, they do not fail the plan.
  std::vector<std::string> stranded;
  DeploymentSnapshot pre_plan;
  /// For kRolledBack plans: the post-rollback snapshot matched pre_plan
  /// exactly, compared over the nodes still alive at rollback time —
  /// entries on a node that died mid-plan are unrestorable regardless.
  /// (Trivially true for committed plans.)
  bool restored_exactly = true;
  std::string reason;
  std::uint64_t dse_candidates = 0;
};

class RecoveryOrchestrator {
 public:
  RecoveryOrchestrator(DynamicPlatform& platform, RecoveryConfig config = {});
  ~RecoveryOrchestrator();
  RecoveryOrchestrator(const RecoveryOrchestrator&) = delete;
  RecoveryOrchestrator& operator=(const RecoveryOrchestrator&) = delete;

  void engage();
  void disengage();

  /// Wires health escalation/clearing: committed plans lift kDegraded
  /// verdicts, an exhausted retry budget escalates to limp-home.
  void set_degradation(DegradationManager* degradation) {
    degradation_ = degradation;
  }

  /// Completed plans, in commit/rollback order. A plan in flight is not
  /// listed until it finishes.
  const std::vector<RecoveryPlan>& plans() const { return plans_; }
  /// Apps currently waiting in the retry queue.
  std::vector<std::string> stranded() const;
  /// Apps whose retry budget is exhausted (vehicle cannot self-heal them).
  const std::vector<std::string>& abandoned() const { return abandoned_; }
  bool plan_in_flight() const { return active_ != nullptr; }

  static DeploymentSnapshot snapshot(DynamicPlatform& platform);

 private:
  /// One app needing a new home.
  struct Displaced {
    const model::AppDef* def = nullptr;
    std::string from_ecu;    ///< dead host or overloaded live host
    std::string live_label;  ///< live instance label; empty => cold start
  };
  struct RetryState {
    int attempts = 0;
    sim::Time next_due = 0;
    std::string origin_ecu;
  };
  /// Undo record of one applied step (reverse-walked on rollback).
  struct JournalEntry {
    StepKind kind = StepKind::kColdStart;
    std::string app;
    std::string label;  ///< origin label (migrations)
    std::string from_ecu;
    std::string to_ecu;
    model::AppDef def;
    std::vector<std::uint8_t> state;  ///< pre-migration app state
  };
  struct Active {
    RecoveryPlan plan;
    std::vector<JournalEntry> journal;
    /// Monitor fault count per target node at soak start.
    std::map<std::string, std::size_t> fault_baseline;
  };

  void sweep();
  std::vector<Displaced> collect_displaced();
  void plan_and_apply(std::vector<Displaced> work);
  /// Whole-vehicle remap of `work` onto the surviving nodes; returns app ->
  /// target ECU for every placeable app (others are left out).
  std::map<std::string, std::string> solve_placement(
      const std::vector<Displaced>& work, std::uint64_t* candidates);
  bool admits(PlatformNode& node, const model::AppDef& def,
              std::vector<dse::AnalysisTask>* pending) const;
  void apply_step(std::size_t index);
  void begin_soak();
  void commit();
  void rollback(const std::string& reason);
  void finish_plan();
  /// Plan-time placement failure: backoff bookkeeping + escalation.
  void strand(const std::string& app, const std::string& origin_ecu);
  /// Records a reached recovery phase in the vehicle trace's CoverageMap.
  void coverage_hit(const char* key);

  DynamicPlatform& platform_;
  RecoveryConfig config_;
  UpdateManager updates_;
  DegradationManager* degradation_ = nullptr;
  sim::EventId sweeper_;
  std::unique_ptr<Active> active_;
  std::vector<RecoveryPlan> plans_;
  std::map<std::string, RetryState> retries_;
  std::vector<std::string> abandoned_;
  std::set<std::string> abandoned_set_;
  int next_plan_id_ = 1;
  bool engaged_ = false;
};

}  // namespace dynaplat::platform
