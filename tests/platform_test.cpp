// Integration tests for the dynamic platform: lifecycle, mixed-criticality
// isolation, staged updates (Sec. 3.2), redundancy failover (Sec. 3.3).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "dse/admission.hpp"
#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "platform/redundancy.hpp"
#include "platform/update.hpp"
#include "platform/vehicle.hpp"

namespace dynaplat::platform {
namespace {

// A counter app: its periodic task increments internal state and publishes
// it when active. State transfer = the counter value.
class CounterApp final : public Application {
 public:
  void on_start(const AppContext& context) override {
    Application::on_start(context);
  }
  void on_task(const std::string&) override {
    ++counter_;
    if (!active()) return;
    middleware::PayloadWriter writer;
    writer.u64(counter_);
    if (!context_.def->provides.empty()) {
      context_.comm->publish(context_.service_id(context_.def->provides[0]),
                             1, writer.take(),
                             context_.priority_of(context_.def->provides[0]));
    }
  }
  std::vector<std::uint8_t> serialize_state() override {
    middleware::PayloadWriter writer;
    writer.u64(counter_);
    return writer.take();
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    try {
      middleware::PayloadReader reader(state);
      counter_ = reader.u64();
    } catch (const std::out_of_range&) {
    }
  }
  std::uint64_t counter() const { return counter_; }

 private:
  std::uint64_t counter_ = 0;
};

class NullApp final : public Application {};

struct World {
  explicit World(const std::string& dsl, PlatformConfig platform_config = {},
                 NodeConfig node_config = {})
      : vehicle(simulator, model::parse_system(dsl),
                {platform_config, node_config, &trace}) {}

  sim::Simulator simulator;
  sim::Trace trace;
  Vehicle vehicle;
  DynamicPlatform& platform = vehicle.platform();
};

const char* kTwoEcuSystem = R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
interface Tick paradigm=event payload=8 period=10ms
app Producer class=deterministic asil=B memory=4M
  task work period=10ms wcet=100K priority=1
  provides Tick
app Consumer class=nondeterministic asil=QM memory=4M
  task poll period=50ms wcet=50K priority=8
  consumes Tick
deploy Producer -> A
deploy Consumer -> B
)";

TEST(DynamicPlatform, InstallAllStartsDeployedApps) {
  World world(kTwoEcuSystem);
  world.platform.register_app("Producer",
                              [] { return std::make_unique<CounterApp>(); });
  world.platform.register_app("Consumer",
                              [] { return std::make_unique<NullApp>(); });
  std::string reason;
  ASSERT_TRUE(world.platform.install_all(&reason)) << reason;
  EXPECT_TRUE(world.platform.node("A")->hosts("Producer"));
  EXPECT_TRUE(world.platform.node("B")->hosts("Consumer"));
  world.simulator.run_until(sim::seconds(1));
  const AppInstance* producer =
      world.platform.node("A")->instance("Producer");
  ASSERT_NE(producer, nullptr);
  EXPECT_GT(static_cast<const CounterApp*>(producer->app.get())->counter(),
            90u);
}

TEST(DynamicPlatform, VerificationGateBlocksBadDeployment) {
  // Producer is ASIL B but ECU A is only certified QM.
  World world(
      "network Net kind=ethernet\n"
      "ecu A mips=1000 memory=64M asil=QM network=Net\n"
      "app P class=deterministic asil=B memory=4M\n"
      "  task t period=10ms wcet=100K priority=1\n"
      "deploy P -> A\n");
  world.platform.register_app("P",
                              [] { return std::make_unique<NullApp>(); });
  std::string reason;
  EXPECT_FALSE(world.platform.install_all(&reason));
  EXPECT_NE(reason.find("asil"), std::string::npos);
}

TEST(DynamicPlatform, EventsFlowAcrossEcus) {
  World world(kTwoEcuSystem);
  world.platform.register_app("Producer",
                              [] { return std::make_unique<CounterApp>(); });
  world.platform.register_app("Consumer",
                              [] { return std::make_unique<NullApp>(); });
  ASSERT_TRUE(world.platform.install_all());
  // An external observer subscribes on node B.
  int received = 0;
  world.platform.node("B")->comm().subscribe(
      world.platform.service_id("Tick"), 1,
      [&](std::vector<std::uint8_t>, net::NodeId) { ++received; });
  world.simulator.run_until(sim::seconds(1));
  EXPECT_GT(received, 50);
}

TEST(DynamicPlatform, AdmissionControlRejectsOverload) {
  World world(
      "network Net kind=ethernet\n"
      "ecu A mips=100 memory=64M asil=D network=Net\n"
      "app Fat class=deterministic asil=B memory=4M\n"
      "  task t period=10ms wcet=900K priority=1\n"  // u = 0.9
      "deploy Fat -> A\n");
  world.platform.register_app("Fat",
                              [] { return std::make_unique<NullApp>(); });
  ASSERT_TRUE(world.platform.install_all());
  // A second app pushing utilization over 1.0 must be rejected at install.
  model::AppDef more;
  more.name = "More";
  more.app_class = model::AppClass::kDeterministic;
  more.memory_bytes = 1 << 20;
  model::TaskDef task;
  task.name = "t";
  task.period = 10 * sim::kMillisecond;
  task.instructions = 500'000;  // another 0.5 utilization
  task.priority = 2;
  more.tasks.push_back(task);
  std::string reason;
  EXPECT_FALSE(world.platform.node("A")->install(
      more, [] { return std::make_unique<NullApp>(); }, &reason));
  EXPECT_NE(reason.find("rejected"), std::string::npos);
}

TEST(DynamicPlatform, VerifierAndInstallShareTheAdmissionTest) {
  // This task set has a time-triggered table, but c misses its 5 ms
  // deadline behind b and the equal-priority a under fixed priorities. The
  // verifier's cpu.schedulability and node install ask the same test, so
  // both refuse it, install with the test's own reason.
  World world(
      "ecu E mips=1000 asil=D\n"
      "app P class=deterministic\n"
      "  task a period=20ms wcet=2786K priority=10\n"
      "  task b period=5ms wcet=1216K priority=9\n"
      "  task c period=5ms wcet=1699K priority=10\n"
      "deploy P -> E\n",
      {.enforce_verification = false});
  const auto violations = world.platform.verify();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "cpu.schedulability");
  EXPECT_EQ(violations[0].subject, "E");
  world.platform.register_app("P",
                              [] { return std::make_unique<NullApp>(); });
  std::string reason;
  EXPECT_FALSE(world.platform.install_all(&reason));
  const model::AppDef& def = *world.platform.system_model().app("P");
  EXPECT_EQ(reason, dse::admit({}, dse::tasks_on(def, 1000)).reason);
  EXPECT_EQ(reason, "rejected: deterministic subset fails RTA");
}

TEST(DynamicPlatform, InstallEnforcesHostRuleWithoutVerification) {
  // A is certified QM only; B runs a general-purpose OS. With verification
  // off, install still applies the host rule the verifier checks.
  World world(
      "ecu A mips=1000 asil=QM\n"
      "ecu B mips=1000 asil=D os=posix\n"
      "app Safe class=nondeterministic asil=B\n"
      "  task t period=10ms wcet=100K priority=5\n"
      "app Det class=deterministic\n"
      "  task t period=10ms wcet=100K priority=1\n"
      "deploy Safe -> A\n"
      "deploy Det -> B\n",
      {.enforce_verification = false});
  std::set<std::string> rules;
  for (const auto& violation : world.platform.verify()) {
    rules.insert(violation.rule);
  }
  EXPECT_EQ(rules, (std::set<std::string>{"asil.ecu-certification",
                                          "cpu.rtos-required"}));
  const auto factory = [] { return std::make_unique<NullApp>(); };
  world.platform.register_app("Safe", factory);
  world.platform.register_app("Det", factory);
  std::string reason;
  EXPECT_FALSE(world.platform.install_all(&reason));
  EXPECT_EQ(reason, "rejected: app ASIL B exceeds ECU 'A' certification QM");
  const model::SystemModel& model = world.platform.system_model();
  EXPECT_FALSE(world.platform.node("B")->install(*model.app("Det"), factory,
                                                 &reason));
  EXPECT_EQ(reason, "rejected: deterministic app on non-RTOS ECU 'B'");
  EXPECT_FALSE(world.platform.node("B")->hosts("Det"));
  // B is certified D, so the non-deterministic app fits there.
  EXPECT_TRUE(world.platform.node("B")->install(*model.app("Safe"), factory,
                                                &reason))
      << reason;
}

TEST(DynamicPlatform, AddNodeRequiresAModelEcu) {
  // Install judges the host rule against the node's model ECU, so a node
  // for an ECU the model does not define is refused up front.
  sim::Simulator simulator;
  DynamicPlatform platform(simulator,
                           model::parse_system("ecu A mips=100\n").model, {});
  os::Ecu stray(simulator, os::EcuConfig{.name = "Z", .cpu = {.mips = 100}},
                nullptr, 0);
  EXPECT_THROW(platform.add_node(stray), std::invalid_argument);
  EXPECT_EQ(platform.node("Z"), nullptr);
}

TEST(DynamicPlatform, MemoryQuotaRejectsInstall) {
  World world(
      "network Net kind=ethernet\n"
      "ecu A mips=1000 memory=8M asil=D network=Net\n"
      "app Slim class=nondeterministic asil=QM memory=6M\n"
      "deploy Slim -> A\n");
  world.platform.register_app("Slim",
                              [] { return std::make_unique<NullApp>(); });
  ASSERT_TRUE(world.platform.install_all());
  model::AppDef big;
  big.name = "Big";
  big.memory_bytes = 6 << 20;  // only ~2M left
  std::string reason;
  EXPECT_FALSE(world.platform.node("A")->install(
      big, [] { return std::make_unique<NullApp>(); }, &reason));
  EXPECT_NE(reason.find("memory"), std::string::npos);
}

TEST(DynamicPlatform, TimeTriggeredNodeIsolatesDaFromNdaLoad) {
  // DA control task + NDA hog on one ECU under platform TT enforcement:
  // the DA must keep its deadlines (E1's platform-on case).
  World world(
      "network Net kind=ethernet\n"
      "ecu A mips=100 memory=64M asil=D network=Net\n"
      "interface Out paradigm=event payload=8 period=10ms\n"
      "app Ctl class=deterministic asil=C memory=4M\n"
      "  task loop period=10ms wcet=200K priority=1\n"
      "  provides Out\n"
      "app Hog class=nondeterministic asil=QM memory=4M\n"
      "  task burn period=20ms wcet=1500K priority=9\n"
      "deploy Ctl -> A\ndeploy Hog -> A\n");
  world.platform.register_app("Ctl",
                              [] { return std::make_unique<CounterApp>(); });
  world.platform.register_app("Hog",
                              [] { return std::make_unique<NullApp>(); });
  std::string reason;
  ASSERT_TRUE(world.platform.install_all(&reason)) << reason;
  world.simulator.run_until(sim::seconds(2));
  auto& cpu = world.vehicle.ecu("A").processor();
  std::uint64_t da_misses = 0;
  for (os::TaskId id : cpu.task_ids()) {
    if (cpu.config(id).task_class == os::TaskClass::kDeterministic) {
      da_misses += cpu.stats(id).deadline_misses;
    }
  }
  EXPECT_EQ(da_misses, 0u);
}

TEST(DynamicPlatform, PersistenceSurvivesAppRestart) {
  World world(kTwoEcuSystem);
  world.platform.register_app("Producer",
                              [] { return std::make_unique<CounterApp>(); });
  world.platform.register_app("Consumer",
                              [] { return std::make_unique<NullApp>(); });
  ASSERT_TRUE(world.platform.install_all());
  auto* node = world.platform.node("A");
  node->persist("calibration", {9, 9, 9});
  node->uninstall("Producer");
  const auto value = node->recall("calibration");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, (std::vector<std::uint8_t>{9, 9, 9}));
}

// --- Staged updates (Sec. 3.2) -------------------------------------------------

struct UpdateWorld : World {
  UpdateWorld() : World(kTwoEcuSystem) {
    platform.register_app("Producer",
                          [] { return std::make_unique<CounterApp>(); });
    platform.register_app("Consumer",
                          [] { return std::make_unique<NullApp>(); });
    EXPECT_TRUE(platform.install_all());
    simulator.run_until(200 * sim::kMillisecond);
  }

  model::AppDef v2_def() {
    model::AppDef def = *platform.system_model().app("Producer");
    def.version = 2;
    return def;
  }
};

TEST(StagedUpdate, CompletesAllFourPhasesWithoutGap) {
  UpdateWorld world;
  UpdateManager updates(world.platform);
  UpdateReport report;
  updates.staged_update(*world.platform.node("A"), "Producer",
                        world.v2_def(),
                        [] { return std::make_unique<CounterApp>(); },
                        UpdateConfig{}, [&](UpdateReport r) { report = r; });
  world.simulator.run_until(sim::seconds(2));
  EXPECT_TRUE(report.success) << report.reason;
  EXPECT_EQ(report.phase_reached, 4);
  EXPECT_EQ(report.ownership_gap, 0);
  EXPECT_EQ(report.serving_label, "Producer#v2");
  // Old instance is gone, new one is running and active.
  auto* node = world.platform.node("A");
  EXPECT_FALSE(node->hosts("Producer"));
  const AppInstance* inst = node->instance("Producer#v2");
  ASSERT_NE(inst, nullptr);
  EXPECT_TRUE(inst->app->active());
}

TEST(StagedUpdate, StateCarriesAcrossVersions) {
  UpdateWorld world;
  UpdateManager updates(world.platform);
  auto* node = world.platform.node("A");
  const auto* old_inst = node->instance("Producer");
  ASSERT_NE(old_inst, nullptr);
  UpdateReport report;
  updates.staged_update(*node, "Producer", world.v2_def(),
                        [] { return std::make_unique<CounterApp>(); },
                        UpdateConfig{}, [&](UpdateReport r) { report = r; });
  world.simulator.run_until(sim::seconds(2));
  ASSERT_TRUE(report.success);
  const auto* new_inst = node->instance("Producer#v2");
  ASSERT_NE(new_inst, nullptr);
  // The counter kept counting across the version change: it is at least
  // the count the old instance had accumulated before the update (~20+
  // at 10ms period over 200ms warmup).
  EXPECT_GT(static_cast<const CounterApp*>(new_inst->app.get())->counter(),
            100u);
}

TEST(StagedUpdate, SubscribersKeepReceivingThroughUpdate) {
  UpdateWorld world;
  int received = 0;
  world.platform.node("B")->comm().subscribe(
      world.platform.service_id("Tick"), 1,
      [&](std::vector<std::uint8_t>, net::NodeId) { ++received; });
  world.simulator.run_until(400 * sim::kMillisecond);
  const int before = received;
  EXPECT_GT(before, 0);
  UpdateManager updates(world.platform);
  UpdateReport report;
  updates.staged_update(*world.platform.node("A"), "Producer",
                        world.v2_def(),
                        [] { return std::make_unique<CounterApp>(); },
                        UpdateConfig{}, [&](UpdateReport r) { report = r; });
  world.simulator.run_until(sim::seconds(2));
  ASSERT_TRUE(report.success);
  // Ticks continued: at ~100/s, a >100ms outage would show as a deficit.
  EXPECT_GT(received, before + 100);
}

TEST(StagedUpdate, RollsBackWhenShadowMissesDeadlines) {
  UpdateWorld world;
  UpdateManager updates(world.platform);
  // v2 is subtly broken: its declared WCET (4 ms at 1000 MIPS) passes
  // admission, but +-90% execution jitter overruns the synthesized TT
  // windows, so the shadow misses deadlines during warm-up.
  model::AppDef broken = world.v2_def();
  broken.tasks[0].instructions = 4'000'000;
  broken.tasks[0].execution_jitter = 0.9;
  UpdateReport report;
  updates.staged_update(*world.platform.node("A"), "Producer", broken,
                        [] { return std::make_unique<CounterApp>(); },
                        UpdateConfig{}, [&](UpdateReport r) { report = r; });
  world.simulator.run_until(sim::seconds(2));
  EXPECT_FALSE(report.success);
  // Old version still serving.
  auto* node = world.platform.node("A");
  const AppInstance* old_inst = node->instance("Producer");
  ASSERT_NE(old_inst, nullptr);
  EXPECT_TRUE(old_inst->app->active());
  EXPECT_FALSE(node->hosts("Producer#v2"));
}

// The two entry points of the staged protocol, run on UpdateWorld's
// Producer: `staged_update` moves it to `v2` on A, `staged_migration` moves
// it unchanged from A to B.
enum class Entry { kUpdate, kMigration };

void run_staged(UpdateWorld& world, UpdateManager& updates, Entry entry,
                const model::AppDef& v2, UpdateConfig config,
                UpdateReport& report) {
  auto done = [&report](UpdateReport r) { report = std::move(r); };
  PlatformNode& a = *world.platform.node("A");
  if (entry == Entry::kUpdate) {
    updates.staged_update(a, "Producer", v2,
                          [] { return std::make_unique<CounterApp>(); },
                          config, done);
  } else {
    updates.staged_migration(a, "Producer", *world.platform.node("B"),
                             config, done);
  }
}

// Force the staged protocol to abort at every phase in turn, through both
// entry points: whatever the phase, the rollback must leave the original
// instance serving (active, zero ownership gap) with no shadow left behind.
struct RollbackCase {
  Entry entry;
  int phase;
};

// Update cases print as the bare phase, migration cases as
// "migration_<phase>"; these strings name the ctest cases.
void PrintTo(const RollbackCase& c, std::ostream* os) {
  if (c.entry == Entry::kMigration) *os << "migration_";
  *os << c.phase;
}

class StagedUpdateRollback : public ::testing::TestWithParam<RollbackCase> {};

TEST_P(StagedUpdateRollback, InjectedPhaseFailureRevertsCleanly) {
  const RollbackCase c = GetParam();
  UpdateWorld world;
  UpdateManager updates(world.platform);
  UpdateConfig config;
  config.inject_failure_phase = c.phase;
  UpdateReport report;
  run_staged(world, updates, c.entry, world.v2_def(), config, report);
  world.simulator.run_until(sim::seconds(2));
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.reason.find("injected"), std::string::npos)
      << report.reason;
  EXPECT_EQ(report.phase_reached, c.phase);
  EXPECT_EQ(report.serving_label, "Producer");
  EXPECT_EQ(report.ownership_gap, 0);
  auto* node = world.platform.node("A");
  const AppInstance* old_inst = node->instance("Producer");
  ASSERT_NE(old_inst, nullptr);
  EXPECT_TRUE(old_inst->running);
  EXPECT_TRUE(old_inst->app->active());
  // No shadow leak: the shadow instance is fully gone.
  if (c.entry == Entry::kUpdate) {
    EXPECT_FALSE(node->hosts("Producer#v2"));
  } else {
    EXPECT_FALSE(world.platform.node("B")->hosts("Producer"));
  }
  EXPECT_EQ(node->instance_labels().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, StagedUpdateRollback,
    ::testing::Values(RollbackCase{Entry::kUpdate, 1},
                      RollbackCase{Entry::kUpdate, 2},
                      RollbackCase{Entry::kUpdate, 3},
                      RollbackCase{Entry::kUpdate, 4},
                      RollbackCase{Entry::kMigration, 1},
                      RollbackCase{Entry::kMigration, 2},
                      RollbackCase{Entry::kMigration, 3},
                      RollbackCase{Entry::kMigration, 4}));

// The origin disappears in the middle of the warm-up: phase 2 finds nothing
// to take the state from and must abort without leaving the shadow behind.
TEST(StagedUpdate, VanishedOriginLeavesNoShadow) {
  for (Entry entry : {Entry::kUpdate, Entry::kMigration}) {
    SCOPED_TRACE(entry == Entry::kUpdate ? "staged_update"
                                         : "staged_migration");
    UpdateWorld world;
    UpdateManager updates(world.platform);
    UpdateReport report;
    run_staged(world, updates, entry, world.v2_def(), UpdateConfig{},
               report);
    // pkg_verify takes 5 ms, so this lands 30 ms into the 50 ms warm-up.
    world.simulator.schedule_in(35 * sim::kMillisecond, [&world] {
      world.platform.node("A")->uninstall("Producer");
    });
    world.simulator.run_until(sim::seconds(2));
    EXPECT_FALSE(report.success);
    EXPECT_EQ(report.reason, "phase 2 failed: instance vanished");
    EXPECT_EQ(report.phase_reached, 2);
    if (entry == Entry::kUpdate) {
      EXPECT_FALSE(world.platform.node("A")->hosts("Producer#v2"));
    } else {
      EXPECT_FALSE(world.platform.node("B")->hosts("Producer"));
    }
  }
}

// Pins, for both entry points through success and each injected phase plus
// the update's shadow-deadline-miss rollback, the ordered kPlatform trace
// records (spans and lifecycle events), the report and the instances left
// on each node.
struct SpanCase {
  Entry entry;
  int inject_phase;
  bool broken_v2;  // v2 misses its deadlines during the warm-up
  const char* strategy;
  int phase_reached;
  const char* reason;
  const char* serving_label;
  std::vector<std::string> records;  // "source event", oldest first
  std::vector<std::string> on_a;
  std::vector<std::string> on_b;
};

TEST(StagedUpdate, SpansAndReportsPerPath) {
  const std::vector<SpanCase> cases = {
      {Entry::kUpdate, 0, false, "staged", 4,
       "staged update complete", "Producer#v2",
       {"A/update update:staged", "A/update pkg_verify", "A/update pkg_verify",
        "A/update phase1_shadow", "A install:Producer#v2",
        "A start_shadow:Producer#v2", "A/update phase1_shadow",
        "A/update warmup", "A/update warmup", "A/update phase2_state_sync",
        "A/update phase2_state_sync", "A/update phase3_redirect",
        "A redirect:Producer->Producer#v2", "A/update phase3_redirect",
        "A/update phase4_stop_old", "A stop:Producer", "A uninstall:Producer",
        "A/update phase4_stop_old", "A/update update:staged"},
       {"Producer#v2"},
       {"Consumer"}},
      {Entry::kUpdate, 1, false, "staged", 1,
       "phase 1 rollback: injected fault", "Producer",
       {"A/update update:staged", "A/update pkg_verify", "A/update pkg_verify",
        "A/update phase1_shadow", "A install:Producer#v2",
        "A start_shadow:Producer#v2", "A stop:Producer#v2",
        "A uninstall:Producer#v2", "A/update phase1_shadow",
        "A/update update:staged"},
       {"Producer"},
       {"Consumer"}},
      {Entry::kUpdate, 2, false, "staged", 2,
       "phase 2 rollback: injected fault", "Producer",
       {"A/update update:staged", "A/update pkg_verify", "A/update pkg_verify",
        "A/update phase1_shadow", "A install:Producer#v2",
        "A start_shadow:Producer#v2", "A/update phase1_shadow",
        "A/update warmup", "A/update warmup", "A/update phase2_state_sync",
        "A/update phase2_state_sync", "A stop:Producer#v2",
        "A uninstall:Producer#v2", "A/update update:staged"},
       {"Producer"},
       {"Consumer"}},
      {Entry::kUpdate, 3, false, "staged", 3,
       "phase 3 rollback: injected fault", "Producer",
       {"A/update update:staged", "A/update pkg_verify", "A/update pkg_verify",
        "A/update phase1_shadow", "A install:Producer#v2",
        "A start_shadow:Producer#v2", "A/update phase1_shadow",
        "A/update warmup", "A/update warmup", "A/update phase2_state_sync",
        "A/update phase2_state_sync", "A/update phase3_redirect",
        "A redirect:Producer->Producer#v2", "A redirect:Producer#v2->Producer",
        "A stop:Producer#v2", "A uninstall:Producer#v2",
        "A/update phase3_redirect", "A/update update:staged"},
       {"Producer"},
       {"Consumer"}},
      {Entry::kUpdate, 4, false, "staged", 4,
       "phase 4 rollback: injected fault", "Producer",
       {"A/update update:staged", "A/update pkg_verify", "A/update pkg_verify",
        "A/update phase1_shadow", "A install:Producer#v2",
        "A start_shadow:Producer#v2", "A/update phase1_shadow",
        "A/update warmup", "A/update warmup", "A/update phase2_state_sync",
        "A/update phase2_state_sync", "A/update phase3_redirect",
        "A redirect:Producer->Producer#v2", "A/update phase3_redirect",
        "A/update phase4_stop_old", "A redirect:Producer#v2->Producer",
        "A stop:Producer#v2", "A uninstall:Producer#v2",
        "A/update phase4_stop_old", "A/update update:staged"},
       {"Producer"},
       {"Consumer"}},
      {Entry::kMigration, 0, false, "staged_migration", 4,
       "staged migration complete", "Producer",
       {"B/update update:migration", "B/update pkg_verify",
        "B/update pkg_verify", "B/update phase1_shadow", "B install:Producer",
        "B start_shadow:Producer", "B/update phase1_shadow", "B/update warmup",
        "B/update warmup", "B/update phase2_state_sync",
        "B/update phase2_state_sync", "B/update phase3_handover",
        "A demote:Producer", "B promote:Producer", "B/update phase3_handover",
        "B/update phase4_stop_origin", "A stop:Producer",
        "A uninstall:Producer", "B/update phase4_stop_origin",
        "B/update update:migration"},
       {},
       {"Consumer", "Producer"}},
      {Entry::kMigration, 1, false, "staged_migration", 1,
       "phase 1 rollback: injected fault", "Producer",
       {"B/update update:migration", "B/update pkg_verify",
        "B/update pkg_verify", "B/update phase1_shadow", "B install:Producer",
        "B start_shadow:Producer", "B stop:Producer", "B uninstall:Producer",
        "B/update phase1_shadow", "B/update update:migration"},
       {"Producer"},
       {"Consumer"}},
      {Entry::kMigration, 2, false, "staged_migration", 2,
       "phase 2 rollback: injected fault", "Producer",
       {"B/update update:migration", "B/update pkg_verify",
        "B/update pkg_verify", "B/update phase1_shadow", "B install:Producer",
        "B start_shadow:Producer", "B/update phase1_shadow", "B/update warmup",
        "B/update warmup", "B/update phase2_state_sync",
        "B/update phase2_state_sync", "B stop:Producer",
        "B uninstall:Producer", "B/update update:migration"},
       {"Producer"},
       {"Consumer"}},
      {Entry::kMigration, 3, false, "staged_migration", 3,
       "phase 3 rollback: injected fault", "Producer",
       {"B/update update:migration", "B/update pkg_verify",
        "B/update pkg_verify", "B/update phase1_shadow", "B install:Producer",
        "B start_shadow:Producer", "B/update phase1_shadow", "B/update warmup",
        "B/update warmup", "B/update phase2_state_sync",
        "B/update phase2_state_sync", "B/update phase3_handover",
        "A demote:Producer", "B promote:Producer", "B demote:Producer",
        "A promote:Producer", "B stop:Producer", "B uninstall:Producer",
        "B/update phase3_handover", "B/update update:migration"},
       {"Producer"},
       {"Consumer"}},
      {Entry::kMigration, 4, false, "staged_migration", 4,
       "phase 4 rollback: injected fault", "Producer",
       {"B/update update:migration", "B/update pkg_verify",
        "B/update pkg_verify", "B/update phase1_shadow", "B install:Producer",
        "B start_shadow:Producer", "B/update phase1_shadow", "B/update warmup",
        "B/update warmup", "B/update phase2_state_sync",
        "B/update phase2_state_sync", "B/update phase3_handover",
        "A demote:Producer", "B promote:Producer", "B/update phase3_handover",
        "B/update phase4_stop_origin", "B demote:Producer",
        "A promote:Producer", "B stop:Producer", "B uninstall:Producer",
        "B/update phase4_stop_origin", "B/update update:migration"},
       {"Producer"},
       {"Consumer"}},
      {Entry::kUpdate, 0, true, "staged", 1,
       "phase 2 rollback: shadow missed deadlines", "Producer",
       {"A/update update:staged", "A/update pkg_verify", "A/update pkg_verify",
        "A/update phase1_shadow", "A install:Producer#v2",
        "A start_shadow:Producer#v2", "A/update phase1_shadow",
        "A/update warmup", "A/update warmup", "A stop:Producer#v2",
        "A uninstall:Producer#v2", "A/update update:staged"},
       {"Producer"},
       {"Consumer"}},
  };
  for (const SpanCase& c : cases) {
    SCOPED_TRACE(std::string(c.strategy) + " inject " +
                 std::to_string(c.inject_phase) +
                 (c.broken_v2 ? " broken v2" : ""));
    UpdateWorld world;
    UpdateManager updates(world.platform);
    UpdateConfig config;
    config.inject_failure_phase = c.inject_phase;
    model::AppDef v2 = world.v2_def();
    if (c.broken_v2) {
      v2.tasks[0].instructions = 4'000'000;
      v2.tasks[0].execution_jitter = 0.9;
    }
    world.trace.clear();
    UpdateReport report;
    run_staged(world, updates, c.entry, v2, config, report);
    world.simulator.run_until(world.simulator.now() +
                              200 * sim::kMillisecond);
    std::vector<std::string> records;
    for (const sim::TraceRecord& r :
         world.trace.tail(world.trace.buffer().size())) {
      if (r.category == sim::TraceCategory::kPlatform) {
        records.push_back(r.source + " " + r.event);
      }
    }
    EXPECT_EQ(records, c.records);
    EXPECT_EQ(report.strategy, c.strategy);
    EXPECT_EQ(report.phase_reached, c.phase_reached);
    EXPECT_EQ(report.reason, c.reason);
    EXPECT_EQ(report.serving_label, c.serving_label);
    EXPECT_EQ(world.platform.node("A")->instance_labels(), c.on_a);
    EXPECT_EQ(world.platform.node("B")->instance_labels(), c.on_b);
  }
}

TEST(StagedMigration, MovesInstanceAcrossNodesWithoutGap) {
  UpdateWorld world;
  UpdateManager updates(world.platform);
  auto* a = world.platform.node("A");
  const auto* origin = a->instance("Producer");
  ASSERT_NE(origin, nullptr);
  const std::uint64_t counted_before =
      static_cast<const CounterApp*>(origin->app.get())->counter();
  UpdateReport report;
  updates.staged_migration(*a, "Producer", *world.platform.node("B"),
                           UpdateConfig{},
                           [&](UpdateReport r) { report = r; });
  world.simulator.run_until(sim::seconds(2));
  ASSERT_TRUE(report.success) << report.reason;
  EXPECT_EQ(report.strategy, "staged_migration");
  EXPECT_EQ(report.ownership_gap, 0);
  EXPECT_FALSE(a->hosts("Producer"));
  const AppInstance* moved = world.platform.node("B")->instance("Producer");
  ASSERT_NE(moved, nullptr);
  EXPECT_TRUE(moved->running);
  EXPECT_TRUE(moved->app->active());
  // State travelled with the instance and kept advancing.
  EXPECT_GT(static_cast<const CounterApp*>(moved->app.get())->counter(),
            counted_before);
}

TEST(StopRestartUpdate, IncursOwnershipGap) {
  UpdateWorld world;
  UpdateManager updates(world.platform);
  UpdateReport report;
  updates.stop_restart_update(*world.platform.node("A"), "Producer",
                              world.v2_def(),
                              [] { return std::make_unique<CounterApp>(); },
                              UpdateConfig{},
                              [&](UpdateReport r) { report = r; });
  world.simulator.run_until(sim::seconds(2));
  ASSERT_TRUE(report.success) << report.reason;
  EXPECT_GT(report.ownership_gap, 0);
}

TEST(CentralSwitchUpdate, GapEqualsClockError) {
  UpdateWorld world;
  UpdateManager updates(world.platform);
  UpdateConfig config;
  config.clock_error = 30 * sim::kMillisecond;
  UpdateReport report;
  updates.central_switch_update(*world.platform.node("A"), "Producer",
                                world.v2_def(),
                                [] { return std::make_unique<CounterApp>(); },
                                config, [&](UpdateReport r) { report = r; });
  world.simulator.run_until(sim::seconds(2));
  ASSERT_TRUE(report.success) << report.reason;
  EXPECT_EQ(report.ownership_gap, 30 * sim::kMillisecond);
}

// --- Redundancy (Sec. 3.3) -------------------------------------------------------

const char* kRedundantSystem = R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
ecu C mips=1000 memory=64M asil=D network=Net
interface Cmd paradigm=event payload=8 period=10ms
app Pilot class=deterministic asil=D memory=4M replicas=2
  task drive period=10ms wcet=100K priority=1
  provides Cmd
deploy Pilot -> A | B | C
)";

struct RedundantWorld : World {
  RedundantWorld() : World(kRedundantSystem) {
    platform.register_app("Pilot",
                          [] { return std::make_unique<CounterApp>(); });
    EXPECT_TRUE(platform.install_all());
  }
};

TEST(Redundancy, ReplicasInstalledPrimaryActive) {
  RedundantWorld world;
  const AppInstance* primary = world.platform.node("A")->instance("Pilot");
  const AppInstance* standby = world.platform.node("B")->instance("Pilot");
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(standby, nullptr);
  EXPECT_TRUE(primary->app->active());
  EXPECT_FALSE(standby->app->active());
}

TEST(Redundancy, FailoverPromotesStandby) {
  RedundantWorld world;
  RedundancyManager redundancy(world.platform, "Pilot");
  redundancy.engage();
  world.simulator.run_until(500 * sim::kMillisecond);
  EXPECT_EQ(redundancy.current_primary(), "A");
  world.vehicle.ecu("A").fail();
  world.simulator.run_until(sim::seconds(1));
  EXPECT_EQ(redundancy.current_primary(), "B");
  ASSERT_EQ(redundancy.failovers().size(), 1u);
  // Failover within a handful of heartbeat periods.
  EXPECT_LT(redundancy.failovers()[0].outage, 200 * sim::kMillisecond);
}

TEST(Redundancy, ServiceContinuesAfterFailover) {
  RedundantWorld world;
  RedundancyManager redundancy(world.platform, "Pilot");
  redundancy.engage();
  int received = 0;
  world.platform.node("C")->comm().subscribe(
      world.platform.service_id("Cmd"), 1,
      [&](std::vector<std::uint8_t>, net::NodeId) { ++received; });
  world.simulator.run_until(500 * sim::kMillisecond);
  world.vehicle.ecu("A").fail();
  world.simulator.run_until(sim::seconds(1));
  const int at_failover = received;
  world.simulator.run_until(sim::seconds(2));
  // Publications resumed from the promoted standby on B.
  EXPECT_GT(received, at_failover + 50);
}

TEST(Redundancy, StateShippedToStandby) {
  RedundantWorld world;
  RedundancyManager redundancy(world.platform, "Pilot");
  redundancy.engage();
  world.simulator.run_until(sim::seconds(1));
  const auto* standby = world.platform.node("B")->instance("Pilot");
  ASSERT_NE(standby, nullptr);
  // The standby's counter tracks the primary's via heartbeat state sync
  // (primary runs at 100 ticks/s; standby restores snapshots).
  EXPECT_GT(static_cast<const CounterApp*>(standby->app.get())->counter(),
            50u);
}

TEST(Redundancy, NoFalseFailoverWhenPrimaryHealthy) {
  RedundantWorld world;
  RedundancyManager redundancy(world.platform, "Pilot");
  redundancy.engage();
  world.simulator.run_until(sim::seconds(3));
  EXPECT_TRUE(redundancy.failovers().empty());
  EXPECT_EQ(redundancy.current_primary(), "A");
}

}  // namespace
}  // namespace dynaplat::platform
