// Deterministic fault-injection campaigns (paper Sec. 2.4, Sec. 3.3/3.4).
//
// The paper's certification argument rests on exercising the platform's
// fail-operational machinery under faults *reproducibly*: "testing against
// uncertainty" needs the same campaign to produce the same fault sequence,
// failover timeline and invariant verdicts on every run. A FaultCampaign is
// therefore a pure function of (seed, registered targets, config): it first
// *plans* a time-sorted list of typed fault events, then *arms* them on the
// simulator. Nothing inside execution consumes fresh randomness, so the
// injected log — and its fingerprint — is bit-for-bit stable.
//
// Event taxonomy (each Start is paired with its End/heal in the plan):
//   kEcuCrash / kEcuRestart       — os::Ecu::fail/recover
//   kBusPartition / kBusHeal      — net::Medium::set_partition/heal_partition
//   kBabbleStart / kBabbleEnd     — babbling-idiot flooding at top priority
//   kBurstLossStart / kBurstLossEnd — Gilbert-Elliott bursty frame loss
//   kCorruptionStart / kCorruptionEnd — payload bit-flip corruption
//   kTaskOverrun / kTaskOverrunEnd — os::Processor execution-time inflation
//   kMemoryPressure / kMemoryRelease — hog process squeezing free memory
//   kBackendCrash / kBackendRestart — fleet schedule backend process loss
//   kUplinkPartition / kUplinkHeal  — vehicle <-> backend uplink severed
//   kBackendSlow / kBackendSlowEnd  — backend slow-responder latency spike
//
// Campaigns can also be scripted exactly (schedule()) — generation and
// scripting compose; the plan is always sorted before arming. Backend and
// uplink faults are scripted only: generate() plans the vehicle families.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "backend/service.hpp"
#include "net/medium.hpp"
#include "os/ecu.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace dynaplat::fault {

enum class FaultKind : std::uint8_t {
  kEcuCrash,
  kEcuRestart,
  kBusPartition,
  kBusHeal,
  kBabbleStart,
  kBabbleEnd,
  kBurstLossStart,
  kBurstLossEnd,
  kCorruptionStart,
  kCorruptionEnd,
  kTaskOverrun,
  kTaskOverrunEnd,
  kMemoryPressure,
  kMemoryRelease,
  kBackendCrash,
  kBackendRestart,
  kUplinkPartition,
  kUplinkHeal,
  kBackendSlow,
  kBackendSlowEnd,
};

const char* to_string(FaultKind kind);

/// Inverse of to_string (exact match); returns false for unknown names.
/// Used by the repro/journal JSON loaders.
bool fault_kind_from_string(std::string_view name, FaultKind* out);

/// The End/heal kind paired with a Start kind (kEcuCrash -> kEcuRestart,
/// ...); returns false for kinds that are themselves End events. The
/// minimizer uses this to keep Start/End pairs together as one episode.
bool fault_kind_end_of(FaultKind start, FaultKind* end);

/// A 64-bit seed or fingerprint as 16 lower-case hex digits, the form JSON
/// documents store it in: a full-range u64 does not survive the double
/// round-trip of a JSON number.
std::string hex_u64(std::uint64_t value);

struct FaultEvent {
  sim::Time at = 0;
  FaultKind kind = FaultKind::kEcuCrash;
  /// ECU name, medium name, or overrun-target label (see add_overrun_target).
  std::string target;
  /// Kind-specific intensity: burst/corruption loss probability, overrun
  /// scale factor, memory-pressure fraction of free bytes, babble frames
  /// per millisecond.
  double magnitude = 0.0;
  /// Partition island (kBusPartition only); empty lets the engine carve
  /// half of the attached nodes deterministically.
  std::set<net::NodeId> island;
};

struct CampaignConfig {
  std::uint64_t seed = 1;
  /// Campaign window: events are planned in [start, start + horizon].
  sim::Time start = 0;
  sim::Duration horizon = 1 * sim::kSecond;
  /// Number of random fault episodes generate() plans (each episode is a
  /// Start/End pair). Scripted events via schedule() come on top.
  int episodes = 8;
  /// Episode duration range.
  sim::Duration min_duration = 20 * sim::kMillisecond;
  sim::Duration max_duration = 200 * sim::kMillisecond;
  /// Relative weights per episode family; 0 disables a family. Families
  /// without a registered target are skipped regardless of weight.
  double weight_crash = 1.0;
  double weight_partition = 1.0;
  double weight_babble = 1.0;
  double weight_burst = 1.0;
  double weight_corruption = 1.0;
  double weight_overrun = 1.0;
  double weight_memory = 1.0;
  /// Post-draw scale applied to generated episode magnitudes (burst loss
  /// probability, babble rate, corruption rate, overrun factor, memory
  /// fraction), clamped to each family's sane range. The RNG draw sequence
  /// is untouched, so 1.0 is the exact identity: legacy plans and
  /// fingerprints are bit-for-bit unchanged. The fuzzer mutates this to
  /// push intensities past what the seeded ranges alone can reach.
  double magnitude_scale = 1.0;
  /// Overrides the island size of generated bus partitions as a fraction
  /// of the attached nodes (clamped to [1, n-1]); 0 keeps the seeded
  /// random island size. Again draw-sequence-neutral, so 0 is the exact
  /// identity. Lets the fuzzer steer partition topology.
  double partition_fraction = 0.0;
};

class FaultCampaign {
 public:
  FaultCampaign(sim::Simulator& simulator, CampaignConfig config = {});
  ~FaultCampaign();
  FaultCampaign(const FaultCampaign&) = delete;
  FaultCampaign& operator=(const FaultCampaign&) = delete;

  // --- Target registration (order matters: it is part of the seed contract) --
  void add_ecu(os::Ecu& ecu);
  void add_medium(net::Medium& medium);
  /// Registers a fleet schedule backend for scripted kBackend*/kUplink*
  /// events (events address it by its name()).
  void add_backend(::dynaplat::backend::FleetScheduleService& service);
  /// Registers a task for overrun injection under `label`
  /// (conventionally "<ecu>/<task-name>").
  void add_overrun_target(std::string label, os::Processor& processor,
                          os::TaskId task);
  /// Fault events are mirrored into this trace (kFault category, source
  /// "fault/<target>") so they land in the exporter's fault lane.
  void set_trace(sim::Trace* trace) { trace_ = trace; }

  // --- Planning --------------------------------------------------------------
  /// Appends one scripted event (its End must be scripted too if needed).
  void schedule(FaultEvent event);
  /// Plans `config.episodes` random Start/End pairs from the seed.
  void generate();
  /// Sorts the plan and schedules every event on the simulator.
  void arm();

  const std::vector<FaultEvent>& plan() const { return plan_; }
  /// Events actually executed, in execution order, stamped with sim time.
  const std::vector<FaultEvent>& injected() const { return injected_; }
  /// FNV-1a fingerprint of the injected log: equal seeds + equal targets
  /// must yield equal fingerprints across runs (reproducibility check).
  std::uint64_t fingerprint() const;

  /// Number of injected events of one kind (invariant-checker helper).
  std::size_t injected_count(FaultKind kind) const;

 private:
  void execute(const FaultEvent& event);
  os::Ecu* ecu_by_name(const std::string& name);
  net::Medium* medium_by_name(const std::string& name);
  ::dynaplat::backend::FleetScheduleService* backend_by_name(
      const std::string& name);
  void start_babble(net::Medium& medium, double frames_per_ms);
  void stop_babble(const std::string& medium_name);
  void sort_plan();

  struct OverrunTarget {
    os::Processor* processor = nullptr;
    os::TaskId task = os::kInvalidTask;
  };
  struct Babbler {
    sim::EventId timer;
  };
  struct MemoryHog {
    os::Ecu* ecu = nullptr;
    os::ProcessId process = os::kInvalidProcess;
  };

  sim::Simulator& sim_;
  CampaignConfig config_;
  std::vector<os::Ecu*> ecus_;
  std::vector<net::Medium*> media_;
  std::vector<::dynaplat::backend::FleetScheduleService*> backends_;
  std::vector<std::pair<std::string, OverrunTarget>> overruns_;
  std::vector<FaultEvent> plan_;
  std::vector<FaultEvent> injected_;
  std::map<std::string, Babbler> babblers_;
  std::map<std::string, MemoryHog> hogs_;
  std::vector<sim::EventId> armed_;
  sim::Trace* trace_ = nullptr;
  bool armed_once_ = false;
};

}  // namespace dynaplat::fault
