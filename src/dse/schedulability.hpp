// Schedulability analysis and time-triggered table synthesis.
//
// Response-time analysis is the exact test behind the one admission
// decision (dse::admit, dse/admission.hpp) that the verification engine's
// cpu.schedulability rule and node install both ask; table synthesis is
// the backend's (paper Sec. 2.3, 3.1; related work [6] compositional
// admission, [19] online schedulability analysis, [21] schedule synthesis).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model/system_model.hpp"
#include "model/verifier.hpp"
#include "os/scheduler.hpp"

namespace dynaplat::dse {

/// A task instance as the analyses see it (model task bound to an ECU).
struct AnalysisTask {
  std::string name;
  sim::Duration period = 0;
  sim::Duration deadline = 0;  ///< effective (<= period)
  sim::Duration wcet = 0;      ///< on the target ECU
  int priority = 16;
  bool deterministic = false;

  double utilization() const {
    return period > 0 ? static_cast<double>(wcet) /
                            static_cast<double>(period)
                      : 0.0;
  }
};

/// Converts an app's model tasks to analysis tasks on a given ECU speed.
std::vector<AnalysisTask> tasks_on(const model::AppDef& app,
                                   std::uint64_t mips);

/// Exact response-time analysis for preemptive fixed-priority scheduling
/// (Joseph & Pandya). Every other task of equal or higher priority (lower
/// or equal number) interferes: the scheduler runs equal priorities in
/// release order, so either of two tied tasks can delay the other, and the
/// verdict does not depend on the order of `tasks`. Returns per-task
/// worst-case response times, or nullopt if any task's fixed point exceeds
/// its deadline.
std::optional<std::vector<sim::Duration>> response_time_analysis(
    const std::vector<AnalysisTask>& tasks);

/// Synthesized time-triggered table: windows within one cycle
/// (== hyperperiod of the deterministic tasks).
struct TtTable {
  sim::Duration cycle = 0;
  /// (offset, length, task index into the input vector)
  struct Window {
    sim::Duration offset = 0;
    sim::Duration length = 0;
    std::size_t task = 0;
  };
  std::vector<Window> windows;

  /// Fraction of the cycle reserved by windows.
  double reserved_fraction() const;
};

/// Greedy EDF-ordered table synthesis for the deterministic subset: each job
/// in the hyperperiod gets a window at the earliest free time after its
/// release that still meets its deadline. Returns nullopt when placement
/// fails (overload or fragmentation). `granularity` aligns window edges
/// (0 = exact). `window_padding` lengthens every window (dispatch /
/// context-switch overhead allowance on the target CPU).
std::optional<TtTable> synthesize_tt_table(
    const std::vector<AnalysisTask>& tasks, sim::Duration granularity = 0,
    sim::Duration window_padding = 0);

/// The verification engine's cpu.schedulability hook: packs an ECU's apps
/// onto its cores first-fit-decreasing by utilization and asks dse::admit
/// for each placement.
model::Verifier::SchedulabilityHook make_verifier_hook();

/// Hyperperiod (LCM of periods), saturating at `cap`.
sim::Duration hyperperiod(const std::vector<AnalysisTask>& tasks,
                          sim::Duration cap = 10 * sim::kSecond);

}  // namespace dynaplat::dse
