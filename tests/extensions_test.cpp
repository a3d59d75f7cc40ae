// Tests for the extension features: gateway routing between heterogeneous
// media, local clocks + sync, the vehicle diagnostics service, distributed
// update paths, redundant update masters and the ACC XiL scenario.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/can_bus.hpp"
#include "net/ethernet.hpp"
#include "net/router.hpp"
#include "obs/json.hpp"
#include "os/clock.hpp"
#include "platform/clock_sync.hpp"
#include "platform/diagnostics.hpp"
#include "platform/update.hpp"
#include "platform/vehicle.hpp"
#include "security/update_master.hpp"
#include "xil/testbench.hpp"

#include "model/parser.hpp"

namespace dynaplat {
namespace {

// --- Router ---------------------------------------------------------------------

TEST(Router, ForwardsMatchingFlowsBetweenCanAndEthernet) {
  sim::Simulator simulator;
  net::CanBus can(simulator, "can0", {});
  net::EthernetSwitch eth(simulator, "eth0", {});
  net::Router gateway(can, 10, eth, 10);
  gateway.route_a_to_b({.flow_min = 100,
                        .flow_max = 199,
                        .destination = 1,
                        .remap_priority = net::Priority{0}});
  int eth_rx = 0;
  net::Priority seen_priority = 7;
  eth.attach(1, [&](const net::Frame& frame) {
    ++eth_rx;
    seen_priority = frame.priority;
  });
  can.attach(2, [](const net::Frame&) {});
  // Matching CAN broadcast -> forwarded to Ethernet node 1.
  net::Frame frame;
  frame.flow_id = 150;
  frame.src = 2;
  frame.priority = 3;
  frame.payload.assign(8, 0xAA);
  can.send(std::move(frame));
  simulator.run();
  EXPECT_EQ(eth_rx, 1);
  EXPECT_EQ(seen_priority, 0);  // remapped
  EXPECT_EQ(gateway.frames_forwarded(), 1u);
}

TEST(Router, FiltersNonMatchingFlows) {
  sim::Simulator simulator;
  net::CanBus can(simulator, "can0", {});
  net::EthernetSwitch eth(simulator, "eth0", {});
  net::Router gateway(can, 10, eth, 10);
  gateway.route_a_to_b({.flow_min = 100, .flow_max = 199, .destination = 1});
  eth.attach(1, [](const net::Frame&) {});
  can.attach(2, [](const net::Frame&) {});
  net::Frame frame;
  frame.flow_id = 50;  // outside the range
  frame.src = 2;
  frame.payload.assign(4, 0);
  can.send(std::move(frame));
  simulator.run();
  EXPECT_EQ(gateway.frames_forwarded(), 0u);
  EXPECT_EQ(gateway.frames_filtered(), 1u);
}

TEST(Router, OversizeFramesAreDroppedNotFragmented) {
  sim::Simulator simulator;
  net::EthernetSwitch eth(simulator, "eth0", {});
  net::CanBus can(simulator, "can0", {});
  net::Router gateway(eth, 10, can, 10);
  gateway.route_a_to_b({.destination = net::kBroadcast});
  eth.attach(2, [](const net::Frame&) {});
  can.attach(3, [](const net::Frame&) {});
  net::Frame frame;
  frame.flow_id = 1;
  frame.src = 2;
  frame.dst = 10;
  frame.payload.assign(100, 0);  // > CAN's 8 bytes
  eth.send(std::move(frame));
  simulator.run();
  EXPECT_EQ(gateway.frames_oversize(), 1u);
  EXPECT_EQ(can.frames_delivered(), 0u);
}

TEST(Router, BidirectionalRouting) {
  sim::Simulator simulator;
  net::CanBus can(simulator, "can0", {});
  net::EthernetSwitch eth(simulator, "eth0", {});
  net::Router gateway(can, 10, eth, 10);
  gateway.route_a_to_b({.destination = 1});
  gateway.route_b_to_a({.destination = net::kBroadcast});
  int can_rx = 0, eth_rx = 0;
  can.attach(2, [&](const net::Frame&) { ++can_rx; });
  eth.attach(1, [&](const net::Frame&) { ++eth_rx; });
  net::Frame from_can;
  from_can.flow_id = 1;
  from_can.src = 2;
  from_can.payload.assign(4, 0);
  can.send(std::move(from_can));
  net::Frame from_eth;
  from_eth.flow_id = 2;
  from_eth.src = 1;
  from_eth.dst = 10;
  from_eth.payload.assign(8, 0);
  eth.send(std::move(from_eth));
  simulator.run();
  EXPECT_EQ(eth_rx, 1);
  EXPECT_EQ(can_rx, 1);
}

TEST(Router, WorkSubmitterDelaysForwarding) {
  sim::Simulator simulator;
  net::CanBus can(simulator, "can0", {});
  net::EthernetSwitch eth(simulator, "eth0", {});
  // Gateway CPU adds 5 ms per frame.
  net::Router gateway(can, 10, eth, 10,
                      [&simulator](std::function<void()> work) {
                        simulator.schedule_in(5 * sim::kMillisecond,
                                              std::move(work));
                      });
  gateway.route_a_to_b({.destination = 1});
  sim::Time delivered = 0;
  eth.attach(1, [&](const net::Frame&) { delivered = simulator.now(); });
  can.attach(2, [](const net::Frame&) {});
  net::Frame frame;
  frame.flow_id = 1;
  frame.src = 2;
  frame.payload.assign(8, 0);
  can.send(std::move(frame));
  simulator.run();
  EXPECT_GT(delivered, 5 * sim::kMillisecond);
}

// --- LocalClock + ClockSyncService --------------------------------------------------

TEST(LocalClock, DriftAccumulates) {
  sim::Simulator simulator;
  os::LocalClock clock(simulator, 100.0);  // 100 ppm fast
  simulator.run_until(sim::seconds(10));
  // 100 ppm over 10 s = 1 ms fast.
  EXPECT_NEAR(static_cast<double>(clock.true_error()),
              static_cast<double>(sim::kMillisecond), 1000.0);
}

TEST(LocalClock, AdjustCorrectsOffset) {
  sim::Simulator simulator;
  os::LocalClock clock(simulator, 0.0, 500 * sim::kMicrosecond);
  EXPECT_EQ(clock.true_error(), 500 * sim::kMicrosecond);
  clock.adjust(-500 * sim::kMicrosecond);
  EXPECT_EQ(clock.true_error(), 0);
}

TEST(ClockSync, SlaveConvergesToMaster) {
  sim::Simulator simulator;
  net::EthernetSwitch backbone(simulator, "eth", {});
  os::EcuConfig master_config{.name = "master", .cpu = {.mips = 1000}};
  os::EcuConfig slave_config{.name = "slave", .cpu = {.mips = 1000}};
  os::Ecu master_ecu(simulator, master_config, &backbone, 1);
  os::Ecu slave_ecu(simulator, slave_config, &backbone, 2);
  master_ecu.processor().start();
  slave_ecu.processor().start();
  middleware::ServiceRuntime master_rt(master_ecu);
  middleware::ServiceRuntime slave_rt(slave_ecu);

  os::LocalClock master_clock(simulator, 0.0);  // reference
  // Slave: 200 ppm fast and starting 10 ms off.
  os::LocalClock slave_clock(simulator, 200.0, 10 * sim::kMillisecond);

  platform::ClockSyncService master_sync(master_rt, master_clock, true);
  platform::ClockSyncService slave_sync(slave_rt, slave_clock, false);
  simulator.run_until(sim::seconds(10));

  EXPECT_GT(slave_sync.corrections(), 50u);
  // Unsynced, the error would be 10 ms + 200 ppm * 10 s = 12 ms. Synced, it
  // is bounded by drift over one 100 ms period + path-delay misestimate.
  EXPECT_LT(std::abs(slave_clock.true_error()), 200 * sim::kMicrosecond);
  EXPECT_LT(slave_sync.residual_error().percentile(95),
            200'000.0 /* 200 us */);
  // The 10 ms start-up offset is acquisition, not a residual.
  EXPECT_LT(slave_sync.residual_error().max(), 200'000.0);
}

TEST(ClockSync, TighterPeriodTightensError) {
  auto residual_for = [](sim::Duration period) {
    sim::Simulator simulator;
    net::EthernetSwitch backbone(simulator, "eth", {});
    os::EcuConfig mc{.name = "m", .cpu = {.mips = 1000}};
    os::EcuConfig sc{.name = "s", .cpu = {.mips = 1000}};
    os::Ecu me(simulator, mc, &backbone, 1);
    os::Ecu se(simulator, sc, &backbone, 2);
    me.processor().start();
    se.processor().start();
    middleware::ServiceRuntime mr(me);
    middleware::ServiceRuntime sr(se);
    os::LocalClock mclk(simulator, 0.0);
    os::LocalClock sclk(simulator, 500.0);  // strongly drifting
    platform::ClockSyncConfig config;
    config.sync_period = period;
    platform::ClockSyncService msync(mr, mclk, true, config);
    platform::ClockSyncService ssync(sr, sclk, false, config);
    simulator.run_until(sim::seconds(20));
    return ssync.residual_error().percentile(95);
  };
  EXPECT_LT(residual_for(10 * sim::kMillisecond),
            residual_for(500 * sim::kMillisecond));
}

// --- Diagnostics service ---------------------------------------------------------------

// One ECU whose deterministic task (u = 0.9 plus 50% execution jitter)
// overruns organically, so its runtime monitor produces faults.
model::ParsedSystem overloaded_system() {
  auto parsed = model::parse_system(
      "network Net kind=ethernet\n"
      "ecu A mips=100 memory=64M asil=D network=Net\n"
      "app Over class=deterministic asil=B memory=4M\n"
      "  task t period=10ms wcet=900K priority=1\n"
      "deploy Over -> A\n");
  const_cast<model::AppDef*>(parsed.model.app("Over"))
      ->tasks[0]
      .execution_jitter = 0.5;
  return parsed;
}

// Neither TT windows nor admission: let the overloaded task miss deadlines.
const platform::NodeConfig kMissingDeadlines{.time_triggered = false,
                                             .admission_control = false};

TEST(Diagnostics, AggregatesFaultsAcrossNodesAndBuffersOffline) {
  sim::Simulator simulator;
  platform::Vehicle vehicle(simulator, overloaded_system(),
                            {.node = kMissingDeadlines});
  platform::DynamicPlatform& dp = vehicle.platform();
  platform::PlatformNode& node = *dp.node("A");
  dp.register_app("Over", [] {
    return std::make_unique<platform::Application>();
  });
  ASSERT_TRUE(dp.install_all());

  platform::DiagnosticsService diagnostics(dp);
  diagnostics.attach(node);
  int uplinked = 0;
  diagnostics.set_uplink([&](const monitor::FaultRecord&) { ++uplinked; });
  diagnostics.set_online(false);  // tunnel, no connectivity

  simulator.run_until(sim::seconds(2));
  EXPECT_GT(diagnostics.all_faults().size(), 0u);
  EXPECT_EQ(uplinked, 0);
  EXPECT_GT(diagnostics.queued_for_uplink(), 0u);

  diagnostics.set_online(true);  // back online: backlog flushes
  EXPECT_GT(uplinked, 0);
  EXPECT_EQ(diagnostics.queued_for_uplink(), 0u);
  const std::string report = diagnostics.vehicle_report();
  EXPECT_NE(report.find("deadline_miss"), std::string::npos);
}

// A self-overloading one-ECU world that organically produces monitor
// faults, shared by the diagnostics tests below.
struct FaultyWorld {
  FaultyWorld() {
    platform.register_app(
        "Over", [] { return std::make_unique<platform::Application>(); });
    EXPECT_TRUE(platform.install_all());
  }

  sim::Simulator simulator;
  sim::Trace trace;
  platform::Vehicle vehicle{simulator, overloaded_system(),
                            {.node = kMissingDeadlines, .trace = &trace}};
  platform::DynamicPlatform& platform = vehicle.platform();
  platform::PlatformNode* node = platform.node("A");
};

TEST(Diagnostics, FlushOnReconnectPreservesFaultOrder) {
  FaultyWorld world;
  platform::DiagnosticsService diagnostics(world.platform);
  diagnostics.attach(*world.node);
  std::vector<sim::Time> uplink_times;
  diagnostics.set_uplink([&](const monitor::FaultRecord& record) {
    uplink_times.push_back(record.at);
  });
  diagnostics.set_online(false);

  world.simulator.run_until(sim::seconds(2));
  const std::size_t queued = diagnostics.queued_for_uplink();
  ASSERT_GT(queued, 1u);
  diagnostics.set_online(true);

  // The backlog flushed in submission order: timestamps non-decreasing and
  // matching the vehicle store record for record.
  ASSERT_EQ(uplink_times.size(), queued);
  ASSERT_EQ(uplink_times.size(), diagnostics.all_faults().size());
  for (std::size_t i = 0; i < uplink_times.size(); ++i) {
    EXPECT_EQ(uplink_times[i], diagnostics.all_faults()[i].at);
    if (i > 0) {
      EXPECT_GE(uplink_times[i], uplink_times[i - 1]);
    }
  }
}

TEST(Diagnostics, ReattachDoesNotDuplicateForwarding) {
  FaultyWorld world;
  platform::DiagnosticsService diagnostics(world.platform);
  diagnostics.attach(*world.node);
  diagnostics.attach(*world.node);  // idempotent: no double forwarding
  int uplinked = 0;
  diagnostics.set_uplink([&](const monitor::FaultRecord&) { ++uplinked; });

  world.simulator.run_until(sim::seconds(2));
  ASSERT_GT(diagnostics.all_faults().size(), 0u);
  // Each monitor fault appears exactly once in the store and the uplink.
  EXPECT_EQ(diagnostics.all_faults().size(),
            world.node->monitor().faults().size());
  EXPECT_EQ(static_cast<std::size_t>(uplinked),
            diagnostics.all_faults().size());
  EXPECT_EQ(diagnostics.uplinked(), diagnostics.all_faults().size());
}

TEST(Diagnostics, MetricsSnapshotExposesFaultCounters) {
  FaultyWorld world;
  platform::DiagnosticsService diagnostics(world.platform);
  // attach() adopts the node's trace-backed registry automatically.
  diagnostics.attach(*world.node);
  world.simulator.run_until(sim::seconds(2));
  ASSERT_GT(diagnostics.all_faults().size(), 0u);

  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(diagnostics.metrics_snapshot(), &doc, &error))
      << error;
  const std::string kind = diagnostics.all_faults().front().kind;
  EXPECT_GE(doc.at("counters").at("diag.faults.A." + kind).number, 1.0);
}

// --- ACC XiL scenario ---------------------------------------------------------------------

TEST(AccXil, MilFollowsLeadWithoutCollision) {
  xil::AccScenario scenario;
  const auto result = xil::run_acc_mil(scenario);
  EXPECT_FALSE(result.collision);
  EXPECT_GT(result.min_gap_m, 5.0);
  EXPECT_LT(result.mean_gap_error_m, 8.0);
}

TEST(AccXil, SilMatchesMilBehaviour) {
  xil::AccScenario scenario;
  const auto mil = xil::run_acc_mil(scenario);
  const auto sil = xil::run_acc_sil(scenario);
  EXPECT_FALSE(sil.collision);
  EXPECT_EQ(sil.deadline_misses, 0u);
  EXPECT_NEAR(sil.min_gap_m, mil.min_gap_m, 3.0);
  EXPECT_NEAR(sil.mean_gap_error_m, mil.mean_gap_error_m, 3.0);
}

TEST(AccXil, HardBrakingShrinksGapButNoCollision) {
  xil::AccScenario scenario;
  scenario.lead_brakes_to_mps = 5.0;  // hard braking event
  const auto result = xil::run_acc_mil(scenario);
  EXPECT_FALSE(result.collision);
  EXPECT_LT(result.min_gap_m, scenario.initial_gap_m);
}

TEST(AccXil, FrameLossDegradesButSurvives) {
  xil::AccScenario scenario;
  scenario.frame_loss_rate = 0.1;
  const auto result = xil::run_acc_sil(scenario);
  EXPECT_FALSE(result.collision);
}

}  // namespace
}  // namespace dynaplat

// --- Distributed updates & redundant masters (separate namespace: reuse
// platform test fixtures' style without colliding names) -----------------------

#include "middleware/payload.hpp"

namespace dynaplat::platform {
namespace {

class ChainApp final : public Application {
 public:
  void on_task(const std::string&) override {
    ++ticks_;
    if (!active() || context_.def->provides.empty()) return;
    middleware::PayloadWriter writer;
    writer.u64(ticks_);
    context_.comm->publish(context_.service_id(context_.def->provides[0]), 1,
                           writer.take(), 2);
  }

 private:
  std::uint64_t ticks_ = 0;
};

const char* kChainSystem =
    "network Net kind=ethernet bitrate=100M\n"
    "ecu A mips=1000 memory=64M asil=D network=Net\n"
    "ecu B mips=1000 memory=64M asil=D network=Net\n"
    "interface Up paradigm=event payload=8 period=10ms version=1\n"
    "interface Down paradigm=event payload=8 period=10ms version=1\n"
    "app Producer class=deterministic asil=B memory=4M\n"
    "  task t period=10ms wcet=100K priority=1\n"
    "  provides Up\n"
    "app Processor class=deterministic asil=B memory=4M\n"
    "  task t period=10ms wcet=100K priority=1\n"
    "  consumes Up\n"
    "  provides Down\n"
    "deploy Producer -> A\n"
    "deploy Processor -> B\n";

struct ChainWorld {
  ChainWorld() {
    dp.register_app("Producer", [] { return std::make_unique<ChainApp>(); });
    dp.register_app("Processor", [] { return std::make_unique<ChainApp>(); });
    EXPECT_TRUE(dp.install_all());
    simulator.run_until(200 * sim::kMillisecond);
  }

  model::AppDef v2(const char* app) {
    model::AppDef def = *dp.system_model().app(app);
    def.version = 2;
    return def;
  }

  sim::Simulator simulator;
  Vehicle vehicle{simulator, model::parse_system(kChainSystem)};
  DynamicPlatform& dp = vehicle.platform();
};

TEST(DistributedUpdate, UpdatesPathInOrderAcrossEcus) {
  ChainWorld world;
  UpdateManager updates(world.dp);
  UpdateManager::DistributedReport report;
  updates.distributed_update(
      {{"A", "Producer", world.v2("Producer"),
        [] { return std::make_unique<ChainApp>(); }},
       {"B", "Processor", world.v2("Processor"),
        [] { return std::make_unique<ChainApp>(); }}},
      UpdateConfig{}, [&](UpdateManager::DistributedReport r) {
        report = std::move(r);
      });
  world.simulator.run_until(sim::seconds(5));
  EXPECT_TRUE(report.success) << report.reason;
  ASSERT_EQ(report.steps.size(), 2u);
  // Steps ran strictly in order.
  EXPECT_LE(report.steps[0].finished, report.steps[1].started);
  EXPECT_TRUE(world.dp.node("A")->hosts("Producer#v2"));
  EXPECT_TRUE(world.dp.node("B")->hosts("Processor#v2"));
}

TEST(DistributedUpdate, AbortsPathWhenStepFails) {
  ChainWorld world;
  UpdateManager updates(world.dp);
  // Second step's new version is infeasible (fails admission).
  model::AppDef broken = world.v2("Processor");
  broken.tasks[0].instructions = 20'000'000;  // 20 ms per 10 ms
  UpdateManager::DistributedReport report;
  updates.distributed_update(
      {{"A", "Producer", world.v2("Producer"),
        [] { return std::make_unique<ChainApp>(); }},
       {"B", "Processor", broken,
        [] { return std::make_unique<ChainApp>(); }},
       {"A", "Producer#v2", world.v2("Producer"),
        [] { return std::make_unique<ChainApp>(); }}},
      UpdateConfig{}, [&](UpdateManager::DistributedReport r) {
        report = std::move(r);
      });
  world.simulator.run_until(sim::seconds(5));
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.steps.size(), 2u);  // step 0 ok, step 1 failed, step 2 never ran
  EXPECT_TRUE(report.steps[0].success);
  EXPECT_FALSE(report.steps[1].success);
  // Step 0's result stands; step 1's old version still serves.
  EXPECT_TRUE(world.dp.node("A")->hosts("Producer#v2"));
  EXPECT_TRUE(world.dp.node("B")->hosts("Processor"));
  EXPECT_FALSE(world.dp.node("B")->hosts("Processor#v2"));
}

TEST(RedundantUpdateMaster, FailsOverToSecondMaster) {
  sim::Simulator simulator;
  net::EthernetSwitch backbone(simulator, "eth", net::EthernetConfig{});
  std::vector<std::unique_ptr<os::Ecu>> ecus;
  std::vector<std::unique_ptr<middleware::ServiceRuntime>> rts;
  for (int i = 0; i < 3; ++i) {
    os::EcuConfig config{.name = "e" + std::to_string(i),
                         .cpu = {.mips = 1000}};
    ecus.push_back(std::make_unique<os::Ecu>(simulator, config, &backbone,
                                             static_cast<net::NodeId>(i + 1)));
    ecus.back()->processor().start();
    rts.push_back(std::make_unique<middleware::ServiceRuntime>(*ecus.back()));
  }
  sim::Random rng(4242);
  const auto oem = crypto::RsaKeyPair::generate(512, rng);
  security::PackageSigner signer(oem);
  // Two redundant masters on distinct service ids and ECUs.
  security::UpdateMasterService master0(*rts[0], oem.pub, 0xF000);
  security::UpdateMasterService master1(*rts[1], oem.pub, 0xF001);
  security::UpdateMasterClient client(*rts[2], {0xF000, 0xF001});

  const auto package = signer.sign("App", 1, std::vector<std::uint8_t>(512, 1));
  // Primary master's ECU dies before the request.
  ecus[0]->fail();
  bool verdict = false;
  int callbacks = 0;
  client.verify(package, [&](bool ok) {
    verdict = ok;
    ++callbacks;
  });
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(callbacks, 1);
  EXPECT_TRUE(verdict);
  EXPECT_EQ(client.last_master_used(), 1);
  EXPECT_EQ(master1.verifications_served(), 1u);
}

}  // namespace
}  // namespace dynaplat::platform

// --- Interface version pinning (Sec. 2.1: the owner controls the version) ---

namespace dynaplat {
namespace {

TEST(VersionPinning, ParserReadsConsumesWithMinVersion) {
  auto sys = model::parse_system(
      "interface Data paradigm=event version=3\n"
      "app C\n  consumes Data@2\n");
  const auto* app = sys.model.app("C");
  ASSERT_NE(app, nullptr);
  ASSERT_EQ(app->consumes.size(), 1u);
  EXPECT_EQ(app->min_versions.at("Data"), 2u);
  // Round trip through to_dsl.
  const auto reparsed =
      model::parse_system(model::to_dsl(sys.model, sys.deployment));
  EXPECT_EQ(reparsed.model.app("C")->min_versions.at("Data"), 2u);
}

TEST(VersionPinning, VerifierFlagsTooOldInterface) {
  auto sys = model::parse_system(
      "ecu E asil=D\n"
      "interface Data paradigm=event version=1\n"
      "app P asil=B\n  provides Data\n"
      "app C asil=B\n  consumes Data@2\n"
      "deploy P -> E\ndeploy C -> E\n");
  model::Verifier verifier;
  const auto violations = verifier.verify(sys.model, sys.deployment);
  bool found = false;
  for (const auto& v : violations) {
    found |= v.rule == "structure.version-mismatch";
  }
  EXPECT_TRUE(found);
}

TEST(VersionPinning, RuntimeIgnoresStaleOffers) {
  sim::Simulator simulator;
  net::EthernetSwitch backbone(simulator, "eth", net::EthernetConfig{});
  os::EcuConfig ca{.name = "a", .cpu = {.mips = 1000}};
  os::EcuConfig cb{.name = "b", .cpu = {.mips = 1000}};
  os::Ecu a(simulator, ca, &backbone, 1);
  os::Ecu b(simulator, cb, &backbone, 2);
  a.processor().start();
  b.processor().start();
  middleware::ServiceRuntime rt_a(a);
  middleware::ServiceRuntime rt_b(b);
  rt_b.require_version(5, 2);
  rt_a.offer(5, 1);  // stale version
  simulator.run_until(50 * sim::kMillisecond);
  EXPECT_FALSE(rt_b.provider_of(5).has_value());
  EXPECT_GE(rt_b.stale_offers_ignored(), 1u);
  // The provider upgrades: the new Offer binds.
  rt_a.offer(5, 2);
  simulator.run_until(100 * sim::kMillisecond);
  ASSERT_TRUE(rt_b.provider_of(5).has_value());
  EXPECT_EQ(rt_b.provider_version(5).value_or(0), 2u);
}

TEST(VersionPinning, RequireVersionUnbindsStaleProvider) {
  sim::Simulator simulator;
  net::EthernetSwitch backbone(simulator, "eth", net::EthernetConfig{});
  os::EcuConfig ca{.name = "a", .cpu = {.mips = 1000}};
  os::EcuConfig cb{.name = "b", .cpu = {.mips = 1000}};
  os::Ecu a(simulator, ca, &backbone, 1);
  os::Ecu b(simulator, cb, &backbone, 2);
  a.processor().start();
  b.processor().start();
  middleware::ServiceRuntime rt_a(a);
  middleware::ServiceRuntime rt_b(b);
  rt_a.offer(5, 1);
  simulator.run_until(50 * sim::kMillisecond);
  ASSERT_TRUE(rt_b.provider_of(5).has_value());
  rt_b.require_version(5, 3);  // tightened at runtime (e.g. after update)
  EXPECT_FALSE(rt_b.provider_of(5).has_value());
}

}  // namespace
}  // namespace dynaplat

// --- Self-healing reconfiguration (Sec. 2.3 "on the road" mapping) -------------

#include "platform/reconfiguration.hpp"

namespace dynaplat::platform {
namespace {

struct ReconfigWorld {
  explicit ReconfigWorld(const char* extra_ecu_attrs = "")
      : vehicle(simulator,
                model::parse_system(
                    "network Net kind=ethernet bitrate=100M\n"
                    "ecu A mips=1000 memory=64M asil=D network=Net\n"
                    "ecu B mips=1000 memory=64M asil=D network=Net " +
                    std::string(extra_ecu_attrs) + "\n" +
                    "interface Out paradigm=event payload=8 period=10ms\n"
                    "app Fn class=deterministic asil=B memory=4M\n"
                    "  task t period=10ms wcet=2M priority=1\n"  // 0.2 util
                    "  provides Out\n"
                    "deploy Fn -> A | B\n")) {
    dp.register_app("Fn", [] { return std::make_unique<Application>(); });
    EXPECT_TRUE(dp.install_all());
  }

  sim::Simulator simulator;
  Vehicle vehicle;
  DynamicPlatform& dp = vehicle.platform();
};

TEST(Reconfiguration, MigratesAppOffFailedEcu) {
  ReconfigWorld world;
  ReconfigurationManager reconfig(world.dp);
  reconfig.engage();
  world.simulator.run_until(sim::seconds(1));
  ASSERT_TRUE(world.dp.node("A")->hosts("Fn"));
  world.vehicle.ecu("A").fail();  // ECU A dies
  world.simulator.run_until(sim::seconds(2));
  ASSERT_EQ(reconfig.migrations().size(), 1u);
  const auto& migration = reconfig.migrations().front();
  EXPECT_TRUE(migration.success);
  EXPECT_EQ(migration.from_ecu, "A");
  EXPECT_EQ(migration.to_ecu, "B");
  const AppInstance* inst = world.dp.node("B")->instance("Fn");
  ASSERT_NE(inst, nullptr);
  EXPECT_TRUE(inst->running);
  // Recovery within a couple of sweep periods.
  EXPECT_LT(migration.at, sim::seconds(1) + 200 * sim::kMillisecond);
}

TEST(Reconfiguration, ServiceResumesAfterMigration) {
  ReconfigWorld world;
  ReconfigurationManager reconfig(world.dp);
  reconfig.engage();
  // Fn is a plain Application (no publishing), so instead verify that
  // consumers re-bind: subscribe from B's runtime and check the provider
  // moves from node A's id to node B's after migration.
  world.simulator.run_until(500 * sim::kMillisecond);
  const auto service = world.dp.service_id("Out");
  const auto before = world.dp.node("B")->comm().provider_of(service);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(*before, world.vehicle.ecu("A").node_id());
  world.vehicle.ecu("A").fail();
  world.simulator.run_until(sim::seconds(2));
  const auto after = world.dp.node("B")->comm().provider_of(service);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, world.vehicle.ecu("B").node_id());
}

TEST(Reconfiguration, StrandedWhenNoCapacity) {
  // Spare ECU too small for the app's memory quota.
  ReconfigWorld world("");
  // Exhaust B's memory so placement must fail.
  os::MemoryManager& memory = world.vehicle.ecu("B").memory();
  ASSERT_NE(memory.create_process("ballast", 62ull << 20),
            os::kInvalidProcess);
  ReconfigurationManager reconfig(world.dp);
  reconfig.engage();
  world.simulator.run_until(500 * sim::kMillisecond);
  world.vehicle.ecu("A").fail();
  world.simulator.run_until(sim::seconds(2));
  ASSERT_FALSE(reconfig.migrations().empty());
  EXPECT_FALSE(reconfig.migrations().front().success);
  ASSERT_EQ(reconfig.stranded().size(), 1u);
  EXPECT_EQ(reconfig.stranded().front(), "Fn");
  // Failure recorded once per episode, not once per sweep.
  EXPECT_EQ(reconfig.migrations().size(), 1u);
}

TEST(Reconfiguration, RespectsHostRules) {
  // B is neither certified for ASIL D nor an RTOS host. Reconfiguration
  // places through node install alone, so install must refuse Fn there.
  sim::Simulator simulator;
  Vehicle vehicle(simulator,
                  model::parse_system(
                      "ecu A mips=1000 asil=D\n"
                      "ecu B mips=1000 asil=A os=posix\n"
                      "app Fn class=deterministic asil=D\n"
                      "  task t period=10ms wcet=1M priority=1\n"
                      "deploy Fn -> A\n"));
  DynamicPlatform& dp = vehicle.platform();
  ASSERT_TRUE(dp.verify().empty());
  dp.register_app("Fn", [] { return std::make_unique<Application>(); });
  ASSERT_TRUE(dp.install_all());
  ReconfigurationManager reconfig(dp);
  reconfig.engage();
  simulator.run_until(sim::seconds(1));
  vehicle.ecu("A").fail();
  simulator.run_until(sim::seconds(2));
  ASSERT_EQ(reconfig.migrations().size(), 1u);
  EXPECT_FALSE(reconfig.migrations().front().success);
  EXPECT_EQ(reconfig.stranded(), std::vector<std::string>{"Fn"});
  EXPECT_FALSE(dp.node("B")->hosts("Fn"));
}

TEST(Reconfiguration, LeavesReplicatedAppsToRedundancyManager) {
  sim::Simulator simulator;
  Vehicle vehicle(simulator,
                  model::parse_system(
                      "network Net kind=ethernet bitrate=100M\n"
                      "ecu A mips=1000 memory=64M asil=D network=Net\n"
                      "ecu B mips=1000 memory=64M asil=D network=Net\n"
                      "app R class=deterministic asil=B memory=4M replicas=2\n"
                      "  task t period=10ms wcet=1M priority=1\n"
                      "deploy R -> A | B\n"));
  DynamicPlatform& dp = vehicle.platform();
  dp.register_app("R", [] { return std::make_unique<Application>(); });
  ASSERT_TRUE(dp.install_all());
  ReconfigurationManager reconfig(dp);
  reconfig.engage();
  vehicle.ecu("A").fail();
  simulator.run_until(sim::seconds(1));
  EXPECT_TRUE(reconfig.migrations().empty());
}

}  // namespace
}  // namespace dynaplat::platform
