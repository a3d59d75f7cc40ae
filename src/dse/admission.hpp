// Online admission control and backend schedule synthesis.
//
// Paper Sec. 3.1 ("CPU"): generating a new schedule at runtime is
// potentially computationally expensive; the proposal is to synthesize the
// schedule *in the backend*, validate it by simulation against the
// installing vehicle's configuration, and ship the table to the ECU, which
// only runs a cheap admission test. Related work: [6] compositional
// admission control, [19] online schedulability analysis, [21] cloud-based
// schedule management.
#pragma once

#include <string>

#include "dse/schedulability.hpp"

namespace dynaplat::dse {

struct AdmissionDecision {
  bool admitted = false;
  std::string reason;
  /// Instruction estimate of the analysis that produced the decision — what
  /// the deciding CPU must spend (ECU-local admission vs backend synthesis).
  std::uint64_t analysis_instructions = 0;
};

/// The admission test: may `incoming` join `existing` on one core? Total
/// utilization must stay <= 1 and the deterministic subset must pass exact
/// response-time analysis. No table synthesis, so it is cheap enough to run
/// on the target ECU itself; the verifier, node install, recovery planning
/// and the fleet client's local fallback all ask this one function.
AdmissionDecision admit(const std::vector<AnalysisTask>& existing,
                        const std::vector<AnalysisTask>& incoming);

/// Cost model of admit(): ~RTA is O(n^2 * iterations).
std::uint64_t local_test_cost(std::size_t task_count);

/// Backend schedule server: full TT synthesis plus validation by simulating
/// the resulting table against the vehicle's task configuration. Expensive,
/// but the cost lands on the backend, not the ECU.
class ScheduleServer {
 public:
  struct Artifact {
    bool feasible = false;
    TtTable table;
    /// Simulation-validated: two hyperperiods with zero deadline misses.
    bool validated = false;
    std::uint64_t synthesis_instructions = 0;
    std::string reason;
  };

  /// Synthesizes and validates a schedule for the full task set of one ECU.
  Artifact synthesize(const std::vector<AnalysisTask>& tasks,
                      std::uint64_t ecu_mips) const;

  /// Cost model of full synthesis + simulation (per job in hyperperiod).
  static std::uint64_t synthesis_cost(std::size_t jobs_in_hyperperiod);
};

/// Validates a TT table by *simulation*: instantiates a scratch Processor
/// with the table and the task set, runs two hyperperiods and checks for
/// deadline misses. This is the backend's "test this schedule in
/// simulations ... against the current configuration of the installing
/// vehicle".
bool validate_by_simulation(const TtTable& table,
                            const std::vector<AnalysisTask>& tasks,
                            std::uint64_t ecu_mips,
                            std::string* why = nullptr);

}  // namespace dynaplat::dse
