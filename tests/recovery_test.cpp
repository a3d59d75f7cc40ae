// Transactional recovery orchestration: whole-vehicle remap plans after
// ECU loss, journaled apply with whole-plan rollback, capped-backoff retry
// queue, degradation integration, and first-fit-decreasing in the legacy
// reconfiguration fallback.
#include <gtest/gtest.h>

#include <memory>

#include "fault/campaign.hpp"
#include "fault/invariants.hpp"
#include "model/parser.hpp"
#include "platform/degradation.hpp"
#include "platform/reconfiguration.hpp"
#include "platform/recovery.hpp"
#include "platform/vehicle.hpp"

namespace dynaplat::platform {
namespace {

// Stateful but silent app: the counter survives serialize/restore, so a
// rolled-back migration must hand it back intact.
class StatefulApp final : public Application {
 public:
  void on_task(const std::string&) override { ++counter_; }
  std::vector<std::uint8_t> serialize_state() override {
    return {static_cast<std::uint8_t>(counter_),
            static_cast<std::uint8_t>(counter_ >> 8),
            static_cast<std::uint8_t>(counter_ >> 16),
            static_cast<std::uint8_t>(counter_ >> 24)};
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    if (state.size() < 4) return;
    counter_ = state[0] | (state[1] << 8) | (state[2] << 16) |
               (std::uint32_t{state[3]} << 24);
  }
  std::uint32_t counter() const { return counter_; }

 private:
  std::uint32_t counter_ = 0;
};

struct World {
  explicit World(const std::string& dsl)
      : vehicle(simulator, model::parse_system(dsl), {.trace = &trace}) {
    for (const auto& app : platform.system_model().apps()) {
      platform.register_app(app.name,
                            [] { return std::make_unique<StatefulApp>(); });
    }
  }

  sim::Simulator simulator;
  sim::Trace trace;
  Vehicle vehicle;
  DynamicPlatform& platform = vehicle.platform();
};

/// Fast orchestrator tuning shared by the tests.
RecoveryConfig fast_recovery() {
  RecoveryConfig config;
  config.dse_iterations = 500;
  config.retry_max_backoff = 800 * sim::kMillisecond;
  return config;
}

// Four ECUs, four non-replicated apps; killing A and B displaces all four.
const char* kFourEcuVehicle = R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
ecu C mips=1000 memory=64M asil=D network=Net
ecu D mips=1000 memory=64M asil=D network=Net
app Brake class=deterministic asil=D memory=4M
  task ctl period=10ms wcet=200K priority=1
app Steer class=deterministic asil=C memory=4M
  task ctl period=10ms wcet=150K priority=2
app Infotain class=nondeterministic asil=QM memory=4M
  task ui period=50ms wcet=500K priority=8
app Maps class=nondeterministic asil=QM memory=4M
  task tiles period=50ms wcet=250K priority=9
deploy Brake -> A
deploy Infotain -> A
deploy Steer -> B
deploy Maps -> B
)";

void kill_two_ecus(World& world, fault::FaultCampaign& campaign) {
  campaign.add_ecu(world.vehicle.ecu("A"));
  campaign.add_ecu(world.vehicle.ecu("B"));
  fault::FaultEvent crash_a;
  crash_a.at = 310 * sim::kMillisecond;
  crash_a.kind = fault::FaultKind::kEcuCrash;
  crash_a.target = "A";
  campaign.schedule(crash_a);
  fault::FaultEvent crash_b = crash_a;
  crash_b.at = 330 * sim::kMillisecond;
  crash_b.target = "B";
  campaign.schedule(crash_b);
  campaign.arm();
}

TEST(Recovery, TwoEcuLossRehostsEveryDisplacedAppWithinBound) {
  World world(kFourEcuVehicle);
  ASSERT_TRUE(world.platform.install_all());
  RecoveryOrchestrator orchestrator(world.platform, fast_recovery());
  orchestrator.engage();
  fault::FaultCampaign campaign(world.simulator);
  kill_two_ecus(world, campaign);
  world.simulator.run_until(sim::seconds(2));

  ASSERT_FALSE(orchestrator.plans().empty());
  const RecoveryPlan& plan = orchestrator.plans().front();
  EXPECT_EQ(plan.status, PlanStatus::kCommitted) << plan.reason;
  EXPECT_EQ(plan.steps.size(), 4u);
  EXPECT_TRUE(plan.stranded.empty());
  EXPECT_GT(plan.dse_candidates, 0u);
  // Criticality ordering: the deterministic apps moved first.
  EXPECT_EQ(plan.steps[0].app, "Brake");
  EXPECT_EQ(plan.steps[1].app, "Steer");

  // Every displaced app runs again on a surviving node.
  for (const char* app : {"Brake", "Steer", "Infotain", "Maps"}) {
    const PlatformNode* host = nullptr;
    for (const char* name : {"C", "D"}) {
      PlatformNode* node = world.platform.node(name);
      const AppInstance* inst = node->instance(app);
      if (inst != nullptr && inst->running) host = node;
    }
    EXPECT_NE(host, nullptr) << app << " was not re-hosted";
  }
  EXPECT_TRUE(orchestrator.stranded().empty());
  EXPECT_TRUE(orchestrator.abandoned().empty());

  fault::InvariantChecker checker;
  checker.require_plan_atomicity(orchestrator);
  checker.require_recovery_latency_below(orchestrator,
                                         500 * sim::kMillisecond);
  const auto report = checker.run();
  EXPECT_TRUE(report.passed) << report.summary();
  EXPECT_GE(
      world.trace.metrics().counter("recovery.plans_committed").value(), 1u);
}

TEST(Recovery, MidPlanFailureRollsBackToBitIdenticalDeployment) {
  World world(kFourEcuVehicle);
  ASSERT_TRUE(world.platform.install_all());
  RecoveryConfig config = fast_recovery();
  config.inject_fail_after_steps = 2;  // abort with half the plan applied
  config.retry_budget = 2;
  RecoveryOrchestrator orchestrator(world.platform, config);
  orchestrator.engage();
  fault::FaultCampaign campaign(world.simulator);
  kill_two_ecus(world, campaign);
  world.simulator.run_until(sim::seconds(2));

  ASSERT_FALSE(orchestrator.plans().empty());
  for (const RecoveryPlan& plan : orchestrator.plans()) {
    EXPECT_EQ(plan.status, PlanStatus::kRolledBack);
    EXPECT_TRUE(plan.restored_exactly) << plan.reason;
    EXPECT_NE(plan.reason.find("injected"), std::string::npos);
  }
  // The vehicle is bit-identical to the journaled pre-plan deployment.
  EXPECT_TRUE(RecoveryOrchestrator::snapshot(world.platform) ==
              orchestrator.plans().front().pre_plan);
  fault::InvariantChecker checker;
  checker.require_plan_atomicity(orchestrator);
  const auto report = checker.run();
  EXPECT_TRUE(report.passed) << report.summary();
  // Retry budget exhausted: the apps end up abandoned.
  EXPECT_EQ(orchestrator.abandoned().size(), 4u);
  EXPECT_GE(
      world.trace.metrics().counter("recovery.plans_rolled_back").value(),
      1u);
}

TEST(Recovery, ExhaustedRetryBudgetEscalatesOriginsToLimpHome) {
  World world(kFourEcuVehicle);
  ASSERT_TRUE(world.platform.install_all());
  RecoveryConfig config = fast_recovery();
  config.inject_fail_after_steps = 0;  // every plan aborts before step 1
  config.retry_budget = 2;
  RecoveryOrchestrator orchestrator(world.platform, config);
  orchestrator.engage();
  DegradationManager degradation(world.platform);
  degradation.engage();
  orchestrator.set_degradation(&degradation);
  fault::FaultCampaign campaign(world.simulator);
  kill_two_ecus(world, campaign);
  world.simulator.run_until(sim::seconds(2));

  // The vehicle could not self-heal the loss: sticky limp-home on the
  // origin ECUs, all four apps abandoned.
  EXPECT_EQ(orchestrator.abandoned().size(), 4u);
  EXPECT_EQ(degradation.state("A"), HealthState::kLimpHome);
  EXPECT_EQ(degradation.state("B"), HealthState::kLimpHome);
  bool escalated = false;
  for (const HealthTransition& transition : degradation.transitions()) {
    if (transition.cause == "recovery_exhausted") escalated = true;
  }
  EXPECT_TRUE(escalated);
}

TEST(Recovery, RetryQueueRecoversOnceCapacityReturns) {
  World world(
      "network Net kind=ethernet bitrate=100M\n"
      "ecu A mips=1000 memory=64M asil=D network=Net\n"
      "ecu B mips=1000 memory=64M asil=D network=Net\n"
      "app Fat class=nondeterministic asil=QM memory=4M\n"
      "  task crunch period=10ms wcet=6M priority=5\n"
      "deploy Fat -> A\n");
  ASSERT_TRUE(world.platform.install_all());
  // B is pre-loaded with a 0.6-utilization squatter, so Fat (0.6) cannot
  // fit until the squatter leaves.
  model::AppDef load;
  load.name = "Load";
  load.memory_bytes = 1 << 20;
  model::TaskDef task;
  task.name = "burn";
  task.period = 10 * sim::kMillisecond;
  task.instructions = 6'000'000;
  task.priority = 3;
  load.tasks.push_back(task);
  auto* b = world.platform.node("B");
  ASSERT_TRUE(
      b->install(load, [] { return std::make_unique<StatefulApp>(); }));
  ASSERT_TRUE(b->start("Load"));

  RecoveryConfig config = fast_recovery();
  config.retry_budget = 5;
  RecoveryOrchestrator orchestrator(world.platform, config);
  orchestrator.engage();
  world.simulator.schedule_at(210 * sim::kMillisecond,
                              [&world] { world.vehicle.ecu("A").fail(); });
  world.simulator.schedule_at(700 * sim::kMillisecond,
                              [b] { b->uninstall("Load"); });
  world.simulator.run_until(sim::seconds(2));

  // Stranding happened (retry counter ticked), then the backlog drained.
  EXPECT_GT(world.trace.metrics().counter("recovery.stranded").value(), 0u);
  ASSERT_FALSE(orchestrator.plans().empty());
  EXPECT_EQ(orchestrator.plans().back().status, PlanStatus::kCommitted);
  const AppInstance* fat = b->instance("Fat");
  ASSERT_NE(fat, nullptr);
  EXPECT_TRUE(fat->running);
  EXPECT_TRUE(orchestrator.stranded().empty());
  EXPECT_TRUE(orchestrator.abandoned().empty());
}

TEST(Recovery, CommittedPlanLiftsDegradedTargetBackToOk) {
  World world(
      "network Net kind=ethernet bitrate=100M\n"
      "ecu A mips=1000 memory=64M asil=D network=Net\n"
      "ecu C mips=1000 memory=64M asil=D network=Net\n"
      "app Main class=nondeterministic asil=QM memory=4M\n"
      "  task run period=20ms wcet=200K priority=6\n"
      "app Aux class=nondeterministic asil=QM memory=4M\n"
      "  task ctl period=10ms wcet=1M priority=2\n"
      "deploy Main -> A\n"
      "deploy Aux -> C\n");
  ASSERT_TRUE(world.platform.install_all());
  DegradationConfig deg_config;
  deg_config.faults_for_degraded = 1;
  deg_config.faults_for_limp_home = 100;
  deg_config.recovery_window = 10 * sim::kSecond;  // only a plan can lift
  DegradationManager degradation(world.platform, deg_config);
  degradation.engage();
  RecoveryOrchestrator orchestrator(world.platform, fast_recovery());
  orchestrator.set_degradation(&degradation);
  orchestrator.engage();

  // A bounded overrun episode on C's Aux task degrades C (the entry into
  // kDegraded sheds Aux, which also stops the misses).
  fault::FaultCampaign campaign(world.simulator);
  auto* aux = world.platform.node("C")->instance("Aux");
  ASSERT_NE(aux, nullptr);
  ASSERT_FALSE(aux->tasks.empty());
  campaign.add_overrun_target("C/ctl",
                              world.vehicle.ecu("C").processor(aux->core),
                              aux->tasks[0]);
  fault::FaultEvent overrun;
  overrun.at = 100 * sim::kMillisecond;
  overrun.kind = fault::FaultKind::kTaskOverrun;
  overrun.target = "C/ctl";
  overrun.magnitude = 15.0;  // 15 ms execution vs a 10 ms deadline
  campaign.schedule(overrun);
  fault::FaultEvent overrun_end = overrun;
  overrun_end.at = 200 * sim::kMillisecond;
  overrun_end.kind = fault::FaultKind::kTaskOverrunEnd;
  campaign.schedule(overrun_end);
  campaign.arm();

  HealthState before_kill = HealthState::kOk;
  world.simulator.schedule_at(390 * sim::kMillisecond, [&] {
    before_kill = degradation.state("C");
    world.vehicle.ecu("A").fail();
  });
  world.simulator.run_until(sim::seconds(2));

  EXPECT_EQ(before_kill, HealthState::kDegraded);
  ASSERT_FALSE(orchestrator.plans().empty());
  EXPECT_EQ(orchestrator.plans().back().status, PlanStatus::kCommitted)
      << orchestrator.plans().back().reason;
  // The committed plan re-hosted Main onto C and lifted C's verdict.
  EXPECT_EQ(degradation.state("C"), HealthState::kOk);
  bool lifted_by_plan = false;
  for (const HealthTransition& transition : degradation.transitions()) {
    if (transition.ecu == "C" && transition.cause == "recovery_plan") {
      lifted_by_plan = true;
    }
  }
  EXPECT_TRUE(lifted_by_plan);
}

TEST(Reconfiguration, FirstFitDecreasingPlacesHeaviestAppFirst) {
  // A hosts Small (declared first) and Big; B has 0.45 fixed load. Only
  // one of the displaced apps fits after A dies. Declaration-order greedy
  // placed Small and stranded Big; FFD must do the opposite.
  World world(
      "network Net kind=ethernet bitrate=100M\n"
      "ecu A mips=1000 memory=64M asil=D network=Net\n"
      "ecu B mips=1000 memory=64M asil=D network=Net\n"
      "app Small class=nondeterministic asil=QM memory=4M\n"
      "  task s period=10ms wcet=3M priority=7\n"
      "app Big class=nondeterministic asil=QM memory=4M\n"
      "  task b period=10ms wcet=5M priority=5\n"
      "app Load class=nondeterministic asil=QM memory=4M\n"
      "  task l period=10ms wcet=4500K priority=3\n"
      "deploy Small -> A\n"
      "deploy Big -> A\n"
      "deploy Load -> B\n");
  ASSERT_TRUE(world.platform.install_all());
  ReconfigurationManager reconfig(world.platform);
  reconfig.engage();
  world.simulator.schedule_at(210 * sim::kMillisecond,
                              [&world] { world.vehicle.ecu("A").fail(); });
  world.simulator.run_until(sim::seconds(1));

  const AppInstance* big = world.platform.node("B")->instance("Big");
  ASSERT_NE(big, nullptr);
  EXPECT_TRUE(big->running);
  EXPECT_FALSE(world.platform.node("B")->hosts("Small"));
  const auto& stranded = reconfig.stranded();
  EXPECT_NE(std::find(stranded.begin(), stranded.end(), "Small"),
            stranded.end());
}

TEST(Recovery, SnapshotIsSortedAndComparable) {
  World world(kFourEcuVehicle);
  ASSERT_TRUE(world.platform.install_all());
  const DeploymentSnapshot snap =
      RecoveryOrchestrator::snapshot(world.platform);
  ASSERT_EQ(snap.entries.size(), 4u);
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_TRUE(snap.entries[i - 1] < snap.entries[i] ||
                !(snap.entries[i] < snap.entries[i - 1]));
  }
  EXPECT_TRUE(snap == RecoveryOrchestrator::snapshot(world.platform));
}

}  // namespace
}  // namespace dynaplat::platform
