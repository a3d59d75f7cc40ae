// Campaign invariant checker: machine-checked fail-operational properties.
//
// A fault campaign is only evidence if the run is judged against explicit
// invariants — the properties the platform claims to uphold *under* faults
// (paper Sec. 3.3/3.4: fail-operational behaviour, runtime monitoring as
// certification input). The checker evaluates its registered invariants at
// end of run and produces a verdict per invariant plus an overall pass.
//
// Built-in invariants:
//   - failover outage below a bound (RedundancyManager timeline),
//   - zero deadline misses for deterministic (DA) applications,
//   - every injected, detectable fault was observed by the platform
//     (task overruns -> runtime-monitor faults; replica-ECU crashes ->
//     failover events),
//   - no stranded reassembly state in any node's transport (TTL eviction
//     actually reclaimed partial messages).
//
// Custom invariants compose via add(); all checks are deterministic reads
// of simulation state, so verdicts are reproducible along with the run.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "backend/fleet.hpp"
#include "fault/campaign.hpp"
#include "platform/platform.hpp"
#include "platform/recovery.hpp"
#include "platform/redundancy.hpp"
#include "sim/trace.hpp"

namespace dynaplat::fault {

struct InvariantResult {
  std::string name;
  bool passed = false;
  std::string detail;  ///< violation description, empty when passed
};

struct InvariantReport {
  bool passed = false;
  std::vector<InvariantResult> results;
  /// Path of the post-mortem flight-recorder bundle dumped on the first
  /// violation; empty when all invariants passed or no recorder was set.
  std::string bundle_path;
  std::string summary() const;
};

/// Post-mortem flight recorder: on the *first* violated invariant of a
/// run() the checker dumps one JSON bundle — trace-ring tail, metrics
/// snapshot, coverage snapshot, and the offending scenario seed — so the
/// failure is triagable without re-running the campaign.
struct FlightRecorderConfig {
  sim::Trace* trace = nullptr;  ///< trace + metrics + coverage source
  std::uint64_t seed = 0;       ///< campaign seed to replay
  std::string path = "postmortem.json";
  std::size_t trace_tail = 256;  ///< newest trace events in the bundle
};

class InvariantChecker {
 public:
  /// A check returns true on pass; on failure it describes the violation
  /// through `detail`.
  using Check = std::function<bool(std::string& detail)>;

  void add(std::string name, Check check);

  /// Every observed failover completed within `bound` of the last
  /// heartbeat (outage = silence + promotion latency).
  void require_failover_outage_below(const platform::RedundancyManager& rm,
                                     sim::Duration bound);

  /// Deterministic (DA) apps never missed a deadline: every running DA
  /// instance's tasks report zero misses. Tasks lost to an ECU crash are
  /// skipped (their processor was rebuilt); surviving replicas are the
  /// ones carrying the claim.
  void require_no_da_deadline_misses(platform::DynamicPlatform& platform);

  /// Every injected detectable fault was observed by the platform:
  /// kTaskOverrun -> a runtime-monitor fault on the targeted ECU at or
  /// after the injection; kEcuCrash of the then-primary replica -> a
  /// failover event detected at or after the crash (pass `rm` as nullptr
  /// to skip crash correlation). A primary crash whose matching restart
  /// lands within `detection_window` is excused: it healed before the
  /// standbys' staggered heartbeat timeout could possibly fire, so "no
  /// failover" is the correct outcome, not a missed detection. Pass the
  /// supervision limit (three missed heartbeat periods plus one
  /// supervisor tick); 0 demands a failover for every primary crash.
  void require_faults_detected(const FaultCampaign& campaign,
                               platform::DynamicPlatform& platform,
                               const platform::RedundancyManager* rm,
                               sim::Duration detection_window = 0);

  /// No node's transport holds partial reassembly state at end of run.
  void require_no_stranded_reassembly(platform::DynamicPlatform& platform);

  /// Recovery plans are atomic transactions: every finished plan either
  /// committed or rolled back, no plan is still mid-flight at end of run,
  /// and every rolled-back plan restored the journaled pre-plan deployment
  /// bit-exactly.
  void require_plan_atomicity(
      const platform::RecoveryOrchestrator& orchestrator);

  /// Every committed recovery plan finished within `bound` of the fault
  /// being detected (the paper's bounded-outage claim applied to
  /// whole-vehicle remaps).
  void require_recovery_latency_below(
      const platform::RecoveryOrchestrator& orchestrator,
      sim::Duration bound);

  /// The fleet backend holds no outstanding requests at end of run: every
  /// accepted request was answered (or explicitly dropped by a partition),
  /// nothing leaked in the queue.
  void require_backend_drained(
      const ::dynaplat::backend::FleetScheduleService& service);

  /// The robustness headline (ISSUE 9): no vehicle session ended the run
  /// unsafe, and no session's unsafe window ever exceeded `max_unsafe` —
  /// the client fallback ladder made unsafety *transient* even while the
  /// backend was down.
  void require_no_stranded_vehicles(
      const ::dynaplat::backend::FleetDriver& fleet,
      sim::Duration max_unsafe);

  /// Bounded recovery completion after heal: once the driver-injected
  /// backend outage healed, every degraded session obtained a fresh
  /// artifact within `bound` (and none is still re-submitting at end of
  /// run).
  void require_fleet_recovery_bounded(
      const ::dynaplat::backend::FleetDriver& fleet, sim::Duration bound);

  /// Arms the post-mortem flight recorder (see FlightRecorderConfig).
  void set_flight_recorder(FlightRecorderConfig config) {
    recorder_ = std::move(config);
  }

  /// Evaluates all registered invariants. With a flight recorder armed,
  /// the first violation across all run() calls dumps the bundle (later
  /// violations are usually cascade noise from the same root cause) and
  /// per-invariant pass/fail counts land in the trace's CoverageMap.
  InvariantReport run() const;

 private:
  std::vector<std::pair<std::string, Check>> checks_;
  FlightRecorderConfig recorder_;
  mutable bool dumped_ = false;
};

}  // namespace dynaplat::fault
