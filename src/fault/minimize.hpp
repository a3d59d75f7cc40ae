// Delta-debugging crash minimizer: shrinks an invariant-violating fault
// campaign to a minimal replayable repro.
//
// A fuzzer-found failure is a whole campaign plan — dozens of fault events
// over seconds of simulated time, most of them irrelevant noise around the
// one interaction that breaks the invariant. The minimizer reduces that to
// a triage-sized artifact in three deterministic passes:
//
//   1. ddmin over *episodes* (Start/End pairs kept together, via
//      fault_kind_end_of): classic delta debugging with granularity
//      doubling finds a 1-minimal episode subset that still violates the
//      same invariant.
//   2. horizon bisection: binary-searches the shortest run_until that
//      still reproduces the violation.
//   3. magnitude bisection: per surviving event, binary-searches the
//      smallest intensity that still fails.
//
// Every probe is a fresh scenario run through the caller's PlanRunner (a
// pure function of the plan — the FaultCampaign determinism contract), so
// the minimization itself is bit-reproducible: same failing campaign in,
// bit-identical minimal repro out, independent of thread count or host.
// The result serializes as a flight-recorder-style JSON bundle
// (repro_json / write_repro_file) and loads back (load_repro) for replay.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fault/campaign.hpp"

namespace dynaplat::fault {

/// Verdict of one minimization probe: did the scenario violate an
/// invariant, and which one.
struct ProbeVerdict {
  bool violated = false;
  std::string invariant;  ///< first violated invariant name
  std::string detail;
};

/// Runs one scenario from an explicit (scripted) plan with the given
/// horizon and reports the verdict. Must be a pure function of its inputs.
using PlanRunner = std::function<ProbeVerdict(
    const std::vector<FaultEvent>& plan, sim::Duration horizon)>;

struct MinimizeConfig {
  /// Probe budget; the minimizer returns its best-so-far when exhausted.
  std::size_t max_runs = 512;
};

/// A minimal reproducer: the surviving plan plus the invariant it trips.
struct Repro {
  bool failing = false;  ///< false = input campaign passed; plan is empty
  std::vector<FaultEvent> plan;
  sim::Duration horizon = 0;
  std::string invariant;
  std::string detail;
  std::uint64_t seed = 0;       ///< originating campaign seed (provenance)
  std::size_t original_events = 0;
  std::size_t runs_used = 0;    ///< probes spent minimizing
};

class Minimizer {
 public:
  /// Horizon bisection stops when the bracket is narrower than this.
  static constexpr sim::Duration kHorizonResolution = 25 * sim::kMillisecond;

  Minimizer(MinimizeConfig config, PlanRunner runner);

  /// Shrinks `plan` to a minimal repro of the violation it produces. When
  /// `target_invariant` is non-empty only that invariant counts as a
  /// reproduction; otherwise the first violation of the full plan pins the
  /// target, so the repro always trips the *same* invariant as the input.
  /// A passing plan returns a non-failing Repro with an empty plan.
  Repro minimize(std::vector<FaultEvent> plan, sim::Duration horizon,
                 std::string target_invariant = {});

 private:
  bool fails(const std::vector<FaultEvent>& plan, sim::Duration horizon,
             const std::string& target, std::string* detail);

  MinimizeConfig config_;
  PlanRunner runner_;
  std::size_t runs_ = 0;
};

/// Renders the repro as a flight-recorder-style JSON bundle.
std::string repro_json(const Repro& repro);
bool write_repro_file(const Repro& repro, const std::string& path);
/// Parses a repro_json() document back; returns false on malformed input.
bool load_repro(std::string_view json_text, Repro* out);

}  // namespace dynaplat::fault
