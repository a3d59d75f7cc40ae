// Transactional self-healing after a double ECU loss (paper Sec. 2.3 +
// 3.3: "the final mapping might only be applied in the vehicle on the
// road").
//
// A four-ECU vehicle drives along with two deterministic control apps and
// two best-effort companions. A scripted fault campaign then kills both
// front ECUs 20 ms apart. The RecoveryOrchestrator detects the loss,
// snapshots the surviving topology, asks the DSE explorer for a
// whole-vehicle remap, admission-checks every target, and applies the
// steps deterministic-first; the plan soaks under the runtime monitor
// before it commits. The example prints every plan with its steps and
// verifies the transactional properties (atomicity, bounded recovery
// latency, zero DA deadline misses among the survivors) afterwards.
//
// The full timeline — fault lane, per-step recovery spans, task execution
// — is exported to recovery_trace.json (chrome://tracing / Perfetto).
//
// Usage: self_healing
#include <cstdio>
#include <memory>

#include "fault/campaign.hpp"
#include "fault/invariants.hpp"
#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "obs/export.hpp"
#include "platform/degradation.hpp"
#include "platform/recovery.hpp"
#include "platform/vehicle.hpp"

using namespace dynaplat;

namespace {

const char* kModel = R"(
network Backbone kind=ethernet bitrate=1G
ecu FrontLeft mips=2000 memory=128M asil=D network=Backbone
ecu FrontRight mips=2000 memory=128M asil=D network=Backbone
ecu RearLeft mips=2000 memory=128M asil=D network=Backbone
ecu RearRight mips=2000 memory=128M asil=D network=Backbone

app Brake class=deterministic asil=D memory=16M
  task ctl period=10ms wcet=400K priority=1

app Steer class=deterministic asil=C memory=16M
  task ctl period=10ms wcet=300K priority=1

app Maps class=nondeterministic asil=QM memory=32M
  task tiles period=40ms wcet=800K priority=5

app Infotain class=nondeterministic asil=QM memory=32M
  task ui period=20ms wcet=200K priority=6

deploy Brake -> FrontLeft | RearLeft | RearRight
deploy Steer -> FrontRight | RearLeft | RearRight
deploy Maps -> FrontLeft | RearLeft | RearRight
deploy Infotain -> FrontRight | RearLeft | RearRight
)";

// Counts its own activations; the counter travels with the app when the
// orchestrator re-hosts it (serialize/restore through the journal).
class CountingApp final : public platform::Application {
 public:
  void on_task(const std::string&) override { ++ticks_; }
  std::vector<std::uint8_t> serialize_state() override {
    middleware::PayloadWriter writer;
    writer.u64(ticks_);
    return writer.take();
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    try {
      middleware::PayloadReader reader(state);
      ticks_ = reader.u64();
    } catch (const std::out_of_range&) {
    }
  }
  std::uint64_t ticks() const { return ticks_; }

 private:
  std::uint64_t ticks_ = 0;
};

}  // namespace

int main() {
  std::printf("== transactional self-healing: double ECU loss ==\n\n");

  model::ParsedSystem parsed = model::parse_system(kModel);
  sim::Simulator simulator;
  sim::Trace trace;
  platform::Vehicle vehicle(simulator, parsed, {.trace = &trace});
  platform::DynamicPlatform& dp = vehicle.platform();
  for (const auto& app : parsed.model.apps()) {
    dp.register_app(app.name, [] { return std::make_unique<CountingApp>(); });
  }
  std::string reason;
  if (!dp.install_all(&reason)) {
    std::printf("install failed: %s\n", reason.c_str());
    return 1;
  }

  platform::DegradationManager degradation(dp);
  degradation.engage();
  platform::RecoveryOrchestrator recovery(dp);
  recovery.set_degradation(&degradation);
  recovery.engage();

  // --- The incident: both front ECUs die 20 ms apart -------------------------
  fault::FaultCampaign campaign(simulator, {});
  campaign.set_trace(&trace);
  campaign.add_ecu(vehicle.ecu("FrontLeft"));
  campaign.add_ecu(vehicle.ecu("FrontRight"));
  for (int i = 0; i < 2; ++i) {
    fault::FaultEvent crash;
    crash.at = 500 * sim::kMillisecond + i * 20 * sim::kMillisecond;
    crash.kind = fault::FaultKind::kEcuCrash;
    crash.target = parsed.model.ecus()[i].name;
    campaign.schedule(crash);
  }
  campaign.arm();

  simulator.run_until(3 * sim::kSecond);

  // --- What happened ----------------------------------------------------------
  std::printf("recovery plans: %zu\n", recovery.plans().size());
  for (const platform::RecoveryPlan& plan : recovery.plans()) {
    std::printf(
        "  plan#%d %-11s detected t=%.3fs finished t=%.3fs (%s)\n", plan.id,
        platform::to_string(plan.status), sim::to_s(plan.fault_detected_at),
        sim::to_s(plan.finished_at), plan.reason.c_str());
    for (const platform::RecoveryStep& step : plan.steps) {
      std::printf("    %-10s %-8s %s -> %s%s\n",
                  step.kind == platform::StepKind::kColdStart ? "cold-start"
                                                              : "migration",
                  step.app.c_str(), step.from_ecu.c_str(),
                  step.to_ecu.c_str(), step.applied ? "" : " (not applied)");
    }
  }

  std::printf("\nsurviving deployment (live nodes):\n");
  for (const auto& entry : platform::RecoveryOrchestrator::snapshot(dp).entries) {
    platform::PlatformNode* node = dp.node(entry.ecu);
    if (node == nullptr || node->ecu().failed()) continue;
    std::printf("  %-10s %-8s %s\n", entry.ecu.c_str(), entry.label.c_str(),
                entry.running ? "running" : "stopped");
  }

  std::printf("\ndegradation transitions: %zu\n",
              degradation.transitions().size());
  for (const platform::HealthTransition& event : degradation.transitions()) {
    std::printf("  t=%7.3fs  %-10s %s -> %s (%s)\n", sim::to_s(event.at),
                event.ecu.c_str(), platform::to_string(event.from),
                platform::to_string(event.to), event.cause.c_str());
  }

  // --- Verify the transactional properties -----------------------------------
  fault::InvariantChecker checker;
  checker.require_plan_atomicity(recovery);
  checker.require_recovery_latency_below(recovery, 500 * sim::kMillisecond);
  const fault::InvariantReport report = checker.run();
  std::printf("\ninvariants: %s\n", report.summary().c_str());

  if (obs::write_chrome_trace_file(trace.buffer(), "recovery_trace.json")) {
    std::printf("wrote recovery_trace.json (recovery + fault lanes)\n");
  }
  return report.passed ? 0 : 1;
}
