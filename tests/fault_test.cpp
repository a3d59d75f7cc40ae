// Robustness tests: deterministic fault campaigns, net-layer fault hooks
// (burst loss, corruption, partitions, per-name seeds), the reliable
// transport (CRC32 + ack/retry + dedup + TTL eviction) and redundancy
// failover under injected faults (partition, crash-restart flapping,
// rank-staggered ordering).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "fault/campaign.hpp"
#include "fault/invariants.hpp"
#include "obs/json.hpp"
#include "middleware/transport.hpp"
#include "model/parser.hpp"
#include "net/can_bus.hpp"
#include "net/ethernet.hpp"
#include "platform/degradation.hpp"
#include "platform/redundancy.hpp"
#include "platform/vehicle.hpp"

namespace dynaplat::platform {
namespace {

// --- Net-layer fault hooks ----------------------------------------------------

/// Sends `count` tagged unicast frames 1 -> 2 spaced 2 ms apart and returns
/// the tags that arrived (the delivered pattern).
std::vector<int> loss_pattern(sim::Simulator& sim, net::Medium& bus,
                              int count) {
  std::vector<int> delivered;
  bus.attach(1, [](const net::Frame&) {});
  bus.attach(2, [&delivered](const net::Frame& frame) {
    delivered.push_back(frame.payload[0] | (frame.payload[1] << 8));
  });
  for (int i = 0; i < count; ++i) {
    sim.schedule_at(static_cast<sim::Time>(i) * 2 * sim::kMillisecond,
                    [&bus, i] {
                      net::Frame frame;
                      frame.src = 1;
                      frame.dst = 2;
                      frame.payload = {static_cast<std::uint8_t>(i),
                                       static_cast<std::uint8_t>(i >> 8),
                                       0, 0, 0, 0, 0, 0};
                      bus.send(std::move(frame));
                    });
  }
  sim.run_until(static_cast<sim::Time>(count + 2) * 2 * sim::kMillisecond);
  return delivered;
}

TEST(MediumFaults, DefaultLossSeedDerivesFromMediumName) {
  // Two identically configured buses with the default seed must not share a
  // drop sequence (a shared fixed seed makes co-simulated buses lose the
  // same frames in lockstep).
  sim::Simulator sim_a;
  net::CanBus bus_a(sim_a, "canA", net::CanBusConfig{});
  bus_a.set_fault_injection(0.3);
  const auto pattern_a = loss_pattern(sim_a, bus_a, 300);

  sim::Simulator sim_b;
  net::CanBus bus_b(sim_b, "canB", net::CanBusConfig{});
  bus_b.set_fault_injection(0.3);
  const auto pattern_b = loss_pattern(sim_b, bus_b, 300);
  EXPECT_NE(pattern_a, pattern_b);

  // Same name => same derived seed => bit-identical pattern in a fresh run.
  sim::Simulator sim_a2;
  net::CanBus bus_a2(sim_a2, "canA", net::CanBusConfig{});
  bus_a2.set_fault_injection(0.3);
  EXPECT_EQ(loss_pattern(sim_a2, bus_a2, 300), pattern_a);
}

TEST(MediumFaults, GilbertElliottProducesBurstyLoss) {
  sim::Simulator sim;
  net::CanBus bus(sim, "can0", net::CanBusConfig{});
  net::GilbertElliott model;
  model.p_good_to_bad = 0.2;
  model.p_bad_to_good = 0.3;
  model.loss_good = 0.0;
  model.loss_bad = 1.0;
  bus.set_burst_loss(model);
  const auto delivered = loss_pattern(sim, bus, 400);
  ASSERT_FALSE(delivered.empty());
  EXPECT_GT(bus.frames_dropped(), 0u);
  // Bursty: with loss_bad=1.0 every Bad-state visit devours consecutive
  // frames (mean run length ~3.3), so gaps of >2 tags must appear.
  bool burst_seen = false;
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    if (delivered[i] - delivered[i - 1] > 2) burst_seen = true;
  }
  EXPECT_TRUE(burst_seen);
}

TEST(MediumFaults, PartitionCutsCrossIslandTrafficOnly) {
  sim::Simulator sim;
  net::CanBus bus(sim, "can0", net::CanBusConfig{});
  int at_2 = 0;
  int at_3 = 0;
  bus.attach(1, [](const net::Frame&) {});
  bus.attach(2, [&at_2](const net::Frame&) { ++at_2; });
  bus.attach(3, [&at_3](const net::Frame&) { ++at_3; });
  EXPECT_FALSE(bus.partitioned());
  bus.set_partition({1});
  EXPECT_TRUE(bus.partitioned());

  auto unicast = [&bus](net::NodeId src, net::NodeId dst) {
    net::Frame frame;
    frame.src = src;
    frame.dst = dst;
    frame.payload = {1, 2, 3};
    bus.send(std::move(frame));
  };
  unicast(1, 2);  // crosses the cut: dropped
  unicast(2, 3);  // same island: delivered
  sim.run_until(10 * sim::kMillisecond);
  EXPECT_EQ(at_2, 0);
  EXPECT_EQ(at_3, 1);
  EXPECT_GE(bus.frames_partition_dropped(), 1u);

  bus.heal_partition();
  unicast(1, 2);
  sim.run_until(20 * sim::kMillisecond);
  EXPECT_EQ(at_2, 1);
}

TEST(MediumFaults, CorruptionFlipsExactlyOneBit) {
  sim::Simulator sim;
  net::CanBus bus(sim, "can0", net::CanBusConfig{});
  bus.attach(1, [](const net::Frame&) {});
  std::vector<std::uint8_t> received;
  bus.attach(
      2, [&received](const net::Frame& frame) { received = frame.payload; });
  bus.set_corruption(1.0);
  net::Frame frame;
  frame.src = 1;
  frame.dst = 2;
  frame.payload = {0xFF, 0xFF, 0xFF, 0xFF};
  bus.send(std::move(frame));
  sim.run_until(10 * sim::kMillisecond);
  ASSERT_EQ(received.size(), 4u);
  int flipped_bits = 0;
  for (const std::uint8_t byte : received) {
    flipped_bits += __builtin_popcount(0xFFu ^ byte);
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(bus.frames_corrupted(), 1u);
}

// --- Reliable transport -------------------------------------------------------

bool is_ack(const net::Frame& frame) {
  return frame.payload.size() >= 6 && frame.payload[4] == 0 &&
         frame.payload[5] == 0;
}

/// Two transports joined by a lossy in-memory wire. Filters may drop
/// (return false) or mutate frames in flight.
struct Wire {
  explicit Wire(middleware::TransportConfig config) {
    a = std::make_unique<middleware::Transport>(
        [this](net::Frame frame) {
          frame.src = 1;
          if (a_filter && !a_filter(frame)) return;
          sim.schedule_in(10 * sim::kMicrosecond,
                          [this, frame] { b->on_frame(frame); });
        },
        16, sim, config);
    b = std::make_unique<middleware::Transport>(
        [this](net::Frame frame) {
          frame.src = 2;
          if (b_filter && !b_filter(frame)) return;
          sim.schedule_in(10 * sim::kMicrosecond,
                          [this, frame] { a->on_frame(frame); });
        },
        16, sim, config);
  }

  sim::Simulator sim;
  std::function<bool(net::Frame&)> a_filter;
  std::function<bool(net::Frame&)> b_filter;
  std::unique_ptr<middleware::Transport> a;
  std::unique_ptr<middleware::Transport> b;
};

middleware::TransportConfig reliable_config() {
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 10 * sim::kMillisecond;
  config.max_retries = 3;
  config.max_backoff = 40 * sim::kMillisecond;
  return config;
}

TEST(ReliableTransport, Crc32MatchesKnownVector) {
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(middleware::crc32(data, sizeof(data)), 0xCBF43926u);
}

TEST(ReliableTransport, RetriesRecoverLostFragments) {
  Wire wire(reliable_config());
  int data_drops = 0;
  wire.a_filter = [&data_drops](net::Frame& frame) {
    if (!is_ack(frame) && data_drops == 0) {
      ++data_drops;
      return false;  // lose the first data fragment once
    }
    return true;
  };
  std::vector<std::uint8_t> got;
  int deliveries = 0;
  wire.b->set_handler(
      [&](net::NodeId, net::Payload message, const obs::TraceContext&) {
        got = message.to_vector();
        ++deliveries;
      });
  const std::vector<std::uint8_t> message(25, 0x5A);
  wire.a->send(2, net::kPriorityLowest, 1, message);
  wire.sim.run_until(sim::seconds(1));
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got, message);
  EXPECT_EQ(wire.a->retries(), 1u);
  EXPECT_EQ(wire.a->pending_reliable(), 0u);
  EXPECT_EQ(wire.a->delivery_failures(), 0u);
}

TEST(ReliableTransport, DuplicateFromLostAckIsSuppressed) {
  Wire wire(reliable_config());
  int ack_drops = 0;
  wire.b_filter = [&ack_drops](net::Frame& frame) {
    if (is_ack(frame) && ack_drops == 0) {
      ++ack_drops;
      return false;  // receiver's first ack never arrives
    }
    return true;
  };
  int deliveries = 0;
  wire.b->set_handler(
      [&deliveries](net::NodeId, net::Payload, const obs::TraceContext&) {
        ++deliveries;
      });
  wire.a->send(2, net::kPriorityLowest, 1, std::vector<std::uint8_t>(25, 7));
  wire.sim.run_until(sim::seconds(1));
  // The retry re-delivered the full message; dedup swallowed the copy.
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(wire.b->duplicates_suppressed(), 1u);
  EXPECT_EQ(wire.b->acks_sent(), 2u);
  EXPECT_EQ(wire.a->pending_reliable(), 0u);
}

TEST(ReliableTransport, BoundedRetriesSurfaceDeliveryFailure) {
  Wire wire(reliable_config());
  wire.a_filter = [](net::Frame& frame) { return is_ack(frame); };
  net::NodeId failed_dst = 0;
  std::uint16_t failed_id = 0;
  wire.a->set_delivery_failure_handler([&](net::NodeId dst, std::uint16_t id) {
    failed_dst = dst;
    failed_id = id;
  });
  wire.a->send(2, net::kPriorityLowest, 1, std::vector<std::uint8_t>(8, 1));
  wire.sim.run_until(sim::seconds(1));
  EXPECT_EQ(wire.a->delivery_failures(), 1u);
  EXPECT_EQ(wire.a->retries(), 3u);  // max_retries, then give up
  EXPECT_EQ(failed_dst, 2u);
  EXPECT_EQ(failed_id, 1u);
  EXPECT_EQ(wire.a->pending_reliable(), 0u);
}

TEST(ReliableTransport, CrcRejectsCorruptionUntilCleanRetry) {
  Wire wire(reliable_config());
  int corrupted = 0;
  wire.a_filter = [&corrupted](net::Frame& frame) {
    if (!is_ack(frame) && corrupted == 0 && frame.payload.size() > 6) {
      ++corrupted;
      frame.payload[6] ^= 0x01;  // single bit flip in the first fragment
    }
    return true;
  };
  std::vector<std::uint8_t> got;
  int deliveries = 0;
  wire.b->set_handler(
      [&](net::NodeId, net::Payload message, const obs::TraceContext&) {
        got = message.to_vector();
        ++deliveries;
      });
  const std::vector<std::uint8_t> message{1, 2,  3,  4,  5,  6,  7, 8,
                                          9, 10, 11, 12, 13, 14, 15};
  wire.a->send(2, net::kPriorityLowest, 1, message);
  wire.sim.run_until(sim::seconds(1));
  EXPECT_EQ(wire.b->crc_failures(), 1u);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got, message);  // the retry delivered the uncorrupted copy
}

TEST(ReassemblyTtl, EvictsStrandedPartials) {
  middleware::TransportConfig config;  // unreliable
  config.reassembly_ttl = 50 * sim::kMillisecond;
  Wire wire(config);
  wire.a_filter = [](net::Frame& frame) {
    return frame.payload[2] != 2;  // last fragment of a 3-fragment message
  };
  int deliveries = 0;
  wire.b->set_handler(
      [&deliveries](net::NodeId, net::Payload, const obs::TraceContext&) {
        ++deliveries;
      });
  wire.a->send(2, net::kPriorityLowest, 1, std::vector<std::uint8_t>(30, 9));
  wire.sim.run_until(10 * sim::kMillisecond);
  EXPECT_EQ(wire.b->partial_count(), 1u);  // stuck at 2/3 fragments

  // Past the TTL the periodic sweep reclaims the stale entry even though
  // the link has gone quiet — no inbound frame is needed.
  wire.sim.run_until(100 * sim::kMillisecond);
  EXPECT_EQ(wire.b->partial_count(), 0u);
  EXPECT_EQ(wire.b->reassembly_evictions(), 1u);
  wire.a_filter = nullptr;
  wire.a->send(2, net::kPriorityLowest, 1, std::vector<std::uint8_t>(4, 3));
  wire.sim.run_until(200 * sim::kMillisecond);
  EXPECT_EQ(deliveries, 1);  // only the second (complete) message
  EXPECT_EQ(wire.b->partial_count(), 0u);
  EXPECT_EQ(wire.b->reassembly_evictions(), 1u);
  EXPECT_GE(wire.b->reassembly_failures(), 1u);
}

// --- Redundancy under injected faults ----------------------------------------

class CounterApp final : public Application {
 public:
  void on_task(const std::string&) override {
    ++counter_;
    if (!active() || context_.def->provides.empty()) return;
    context_.comm->publish(context_.service_id(context_.def->provides[0]), 1,
                           {static_cast<std::uint8_t>(counter_)},
                           context_.priority_of(context_.def->provides[0]));
  }
  std::vector<std::uint8_t> serialize_state() override {
    return {static_cast<std::uint8_t>(counter_)};
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    if (!state.empty()) counter_ = state[0];
  }

 private:
  std::uint64_t counter_ = 0;
};

class NullApp final : public Application {};

struct World {
  explicit World(const std::string& dsl, NodeConfig node_config = {})
      : vehicle(simulator, model::parse_system(dsl),
                {.node = node_config, .trace = &trace}) {}

  sim::Simulator simulator;
  sim::Trace trace;
  Vehicle vehicle;
  DynamicPlatform& platform = vehicle.platform();
};

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
  explicit RedundantWorld(const char* dsl = kRedundantSystem) : World(dsl) {
    platform.register_app("Pilot",
                          [] { return std::make_unique<CounterApp>(); });
    EXPECT_TRUE(platform.install_all());
  }
};

TEST(RedundancyFault, FailoverDuringBusPartition) {
  RedundantWorld world;
  RedundancyManager redundancy(world.platform, "Pilot");
  redundancy.engage();
  world.simulator.run_until(300 * sim::kMillisecond);
  EXPECT_EQ(redundancy.current_primary(), "A");

  // Sever A (node 1) from B and C: the standby must take over even though
  // A is still alive on its island.
  world.vehicle.medium("Net").set_partition({1});
  world.simulator.run_until(sim::seconds(1));
  EXPECT_EQ(redundancy.current_primary(), "B");
  ASSERT_EQ(redundancy.failovers().size(), 1u);

  // After the heal, the deposed primary rejoins as a standby — it must not
  // reclaim (no flapping: still exactly one failover).
  world.vehicle.medium("Net").heal_partition();
  world.simulator.run_until(sim::seconds(3));
  EXPECT_EQ(redundancy.current_primary(), "B");
  EXPECT_EQ(redundancy.failovers().size(), 1u);
  const AppInstance* old_primary =
      world.platform.node("A")->instance("Pilot");
  ASSERT_NE(old_primary, nullptr);
  EXPECT_FALSE(old_primary->app->active());
}

TEST(RedundancyFault, CrashRestartPrimaryDoesNotReclaim) {
  RedundantWorld world;
  RedundancyManager redundancy(world.platform, "Pilot");
  redundancy.engage();
  world.simulator.run_until(400 * sim::kMillisecond);

  world.vehicle.ecu("A").fail();
  world.simulator.run_until(sim::seconds(1));
  EXPECT_EQ(redundancy.current_primary(), "B");
  ASSERT_EQ(redundancy.failovers().size(), 1u);

  // The crashed primary restarts; it must rejoin as a standby, not flap
  // leadership back.
  world.vehicle.ecu("A").recover();
  world.simulator.run_until(sim::seconds(3));
  EXPECT_EQ(redundancy.current_primary(), "B");
  EXPECT_EQ(redundancy.failovers().size(), 1u);
}

const char* kQuadRedundantSystem = R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
ecu C mips=1000 memory=64M asil=D network=Net
ecu D mips=1000 memory=64M asil=D network=Net
interface Cmd paradigm=event payload=8 period=10ms
app Pilot class=deterministic asil=D memory=4M replicas=4
  task drive period=10ms wcet=100K priority=1
  provides Cmd
deploy Pilot -> A | B | C | D
)";

TEST(RedundancyFault, StaggeredTimeoutsPromoteExactlyTheFirstStandby) {
  RedundantWorld world(kQuadRedundantSystem);
  RedundancyManager redundancy(world.platform, "Pilot");
  redundancy.engage();
  world.simulator.run_until(300 * sim::kMillisecond);

  world.vehicle.ecu("A").fail();
  world.simulator.run_until(sim::seconds(2));
  // Rank 1 wins the staggered race; ranks 2 and 3 stand down once its
  // heartbeats appear — exactly one promotion.
  EXPECT_EQ(redundancy.current_primary(), "B");
  ASSERT_EQ(redundancy.failovers().size(), 1u);
  EXPECT_EQ(redundancy.failovers()[0].new_primary, 2u);
  EXPECT_FALSE(world.platform.node("C")->instance("Pilot")->app->active());
  EXPECT_FALSE(world.platform.node("D")->instance("Pilot")->app->active());
}

// --- Graceful degradation -----------------------------------------------------

const char* kMixedCriticalitySystem = R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
interface Tick paradigm=event payload=8 period=10ms
app Drive class=deterministic asil=D memory=4M
  task ctrl period=10ms wcet=100K priority=1
  provides Tick
app Infotain class=nondeterministic asil=QM memory=4M
  task ui period=20ms wcet=50K priority=8
deploy Drive -> A
deploy Infotain -> A
)";

struct MixedWorld : World {
  MixedWorld()
      : World(kMixedCriticalitySystem, [] {
          NodeConfig config;
          config.time_triggered = false;
          return config;
        }()) {
    platform.register_app("Drive",
                          [] { return std::make_unique<CounterApp>(); });
    platform.register_app("Infotain",
                          [] { return std::make_unique<NullApp>(); });
    EXPECT_TRUE(platform.install_all());
  }

  bool infotain_running() {
    const auto labels = platform.node("A")->running_instances();
    return std::find(labels.begin(), labels.end(), "Infotain") != labels.end();
  }
};

DegradationConfig fast_degradation() {
  DegradationConfig config;
  config.faults_for_degraded = 3;
  config.faults_for_limp_home = 1000;  // keep the test in DEGRADED
  config.fault_window = 500 * sim::kMillisecond;
  config.recovery_window = 300 * sim::kMillisecond;
  config.evaluation_period = 20 * sim::kMillisecond;
  return config;
}

TEST(Degradation, MonitorFaultsShedNdaLoadAndRecoveryRestoresIt) {
  MixedWorld world;
  DegradationManager degradation(world.platform, fast_degradation());
  degradation.engage();
  world.simulator.run_until(200 * sim::kMillisecond);
  EXPECT_EQ(degradation.state("A"), HealthState::kOk);
  EXPECT_TRUE(world.infotain_running());

  // A latent bug: the DA control task suddenly runs 300x its nominal time,
  // blowing deadlines. The monitor raises faults; the degradation manager
  // sheds the NDA app to give the DA task the machine.
  const AppInstance* drive = world.platform.node("A")->instance("Drive");
  ASSERT_NE(drive, nullptr);
  os::Processor& cpu = world.vehicle.ecu("A").processor(drive->core);
  const os::TaskId ctrl = drive->tasks[0];
  cpu.inject_overrun(ctrl, 300.0);
  world.simulator.run_until(230 * sim::kMillisecond);
  cpu.clear_overrun(ctrl);
  world.simulator.run_until(sim::seconds(1));
  EXPECT_EQ(degradation.state("A"), HealthState::kDegraded);
  EXPECT_FALSE(world.infotain_running());
  EXPECT_GE(degradation.apps_shed(), 1u);

  // The overrun cleared; once the aggregate miss ratio sinks back under the
  // contract and the fault window drains, the ECU returns to OK and the
  // shed app restarts.
  world.simulator.run_until(sim::seconds(10));
  EXPECT_EQ(degradation.state("A"), HealthState::kOk);
  EXPECT_TRUE(world.infotain_running());
  EXPECT_GE(degradation.apps_restored(), 1u);
  // The full journey is on record.
  ASSERT_GE(degradation.transitions().size(), 2u);
  EXPECT_EQ(degradation.transitions()[0].to, HealthState::kDegraded);
  EXPECT_EQ(degradation.transitions().back().to, HealthState::kOk);
}

TEST(Degradation, HeartbeatLossForcesStickyLimpHome) {
  MixedWorld world;
  DegradationManager degradation(world.platform, fast_degradation());
  degradation.engage();
  world.simulator.run_until(100 * sim::kMillisecond);

  degradation.report_heartbeat_loss("A");
  EXPECT_EQ(degradation.state("A"), HealthState::kLimpHome);
  EXPECT_FALSE(world.infotain_running());

  // Limp-home does not self-heal, no matter how quiet the ECU is.
  world.simulator.run_until(sim::seconds(2));
  EXPECT_EQ(degradation.state("A"), HealthState::kLimpHome);

  degradation.reset("A");
  EXPECT_EQ(degradation.state("A"), HealthState::kOk);
  EXPECT_TRUE(world.infotain_running());
}

// --- Campaign engine ----------------------------------------------------------

/// Two ECUs on a CAN bus, no platform: enough surface for every event
/// family except task overruns.
struct MiniRig {
  MiniRig() : bus(sim, "can0", net::CanBusConfig{}) {
    os::EcuConfig config_a;
    config_a.name = "A";
    ecu_a = std::make_unique<os::Ecu>(sim, config_a, &bus, 1);
    os::EcuConfig config_b;
    config_b.name = "B";
    ecu_b = std::make_unique<os::Ecu>(sim, config_b, &bus, 2);
  }

  sim::Simulator sim;
  net::CanBus bus;
  std::unique_ptr<os::Ecu> ecu_a;
  std::unique_ptr<os::Ecu> ecu_b;
};

std::uint64_t run_campaign(std::uint64_t seed, std::size_t* injected_count) {
  MiniRig rig;
  fault::CampaignConfig config;
  config.seed = seed;
  config.horizon = 500 * sim::kMillisecond;
  config.episodes = 10;
  fault::FaultCampaign campaign(rig.sim, config);
  campaign.add_ecu(*rig.ecu_a);
  campaign.add_ecu(*rig.ecu_b);
  campaign.add_medium(rig.bus);
  campaign.generate();
  campaign.arm();
  rig.sim.run_until(sim::seconds(1));
  if (injected_count != nullptr) *injected_count = campaign.injected().size();
  return campaign.fingerprint();
}

TEST(Campaign, SameSeedReproducesBitForBit) {
  std::size_t count_1 = 0;
  std::size_t count_2 = 0;
  const std::uint64_t fp_1 = run_campaign(42, &count_1);
  const std::uint64_t fp_2 = run_campaign(42, &count_2);
  EXPECT_EQ(fp_1, fp_2);
  EXPECT_EQ(count_1, count_2);
  EXPECT_EQ(count_1, 20u);  // 10 episodes = 10 start/end pairs

  const std::uint64_t fp_other = run_campaign(43, nullptr);
  EXPECT_NE(fp_1, fp_other);
}

TEST(Campaign, ScriptedEventsFireAtTheirTimes) {
  MiniRig rig;
  fault::FaultCampaign campaign(rig.sim, fault::CampaignConfig{});
  campaign.add_ecu(*rig.ecu_a);

  fault::FaultEvent crash;
  crash.at = 10 * sim::kMillisecond;
  crash.kind = fault::FaultKind::kEcuCrash;
  crash.target = "A";
  campaign.schedule(crash);
  fault::FaultEvent restart;
  restart.at = 30 * sim::kMillisecond;
  restart.kind = fault::FaultKind::kEcuRestart;
  restart.target = "A";
  campaign.schedule(restart);
  campaign.arm();

  bool was_failed_mid_window = false;
  rig.sim.schedule_at(20 * sim::kMillisecond, [&] {
    was_failed_mid_window = rig.ecu_a->failed();
  });
  rig.sim.run_until(100 * sim::kMillisecond);
  EXPECT_TRUE(was_failed_mid_window);
  EXPECT_FALSE(rig.ecu_a->failed());
  ASSERT_EQ(campaign.injected().size(), 2u);
  EXPECT_EQ(campaign.injected()[0].at, 10 * sim::kMillisecond);
  EXPECT_EQ(campaign.injected()[1].at, 30 * sim::kMillisecond);
  EXPECT_EQ(campaign.injected_count(fault::FaultKind::kEcuCrash), 1u);
}

TEST(Campaign, BabblingIdiotFloodsTheBus) {
  MiniRig rig;
  std::uint64_t flood_frames = 0;
  rig.ecu_b->set_receive_handler([&flood_frames](const net::Frame& frame) {
    if (frame.src == 0xBABB1E) ++flood_frames;
  });
  fault::FaultCampaign campaign(rig.sim, fault::CampaignConfig{});
  campaign.add_medium(rig.bus);
  fault::FaultEvent babble;
  babble.at = 10 * sim::kMillisecond;
  babble.kind = fault::FaultKind::kBabbleStart;
  babble.target = "can0";
  babble.magnitude = 10.0;  // frames per millisecond
  campaign.schedule(babble);
  fault::FaultEvent stop;
  stop.at = 60 * sim::kMillisecond;
  stop.kind = fault::FaultKind::kBabbleEnd;
  stop.target = "can0";
  campaign.schedule(stop);
  campaign.arm();
  rig.sim.run_until(200 * sim::kMillisecond);
  // ~50ms at 10 frames/ms: a flood, then silence after the stop event.
  EXPECT_GT(flood_frames, 50u);
  const std::uint64_t at_stop = flood_frames;
  rig.sim.run_until(400 * sim::kMillisecond);
  EXPECT_EQ(flood_frames, at_stop);
}

// --- Invariant checker --------------------------------------------------------

TEST(Invariants, ReportsViolationsAndPasses) {
  fault::InvariantChecker checker;
  checker.add("always_true", [](std::string&) { return true; });
  checker.add("always_false", [](std::string& detail) {
    detail = "expected failure";
    return false;
  });
  const fault::InvariantReport report = checker.run();
  EXPECT_FALSE(report.passed);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.results[0].passed);
  EXPECT_FALSE(report.results[1].passed);
  EXPECT_NE(report.summary().find("VIOLATED"), std::string::npos);
  EXPECT_NE(report.summary().find("expected failure"), std::string::npos);
}

TEST(Invariants, FlightRecorderDumpsBundleOnFirstViolationOnly) {
  sim::Trace trace;
  trace.metrics().counter("mw.sent").add(5);
  trace.coverage().hit("transport.retransmit", 2);
  trace.record(5 * sim::kMillisecond, sim::TraceCategory::kFault, "ecu/A",
               "heartbeat", 1);

  fault::InvariantChecker checker;
  checker.add("always_true", [](std::string&) { return true; });
  checker.add("brake_chain_alive", [](std::string& detail) {
    detail = "no frames for 40ms";
    return false;
  });
  const std::string path = ::testing::TempDir() + "flight_recorder_test.json";
  std::remove(path.c_str());
  fault::FlightRecorderConfig recorder;
  recorder.trace = &trace;
  recorder.seed = 99;
  recorder.path = path;
  checker.set_flight_recorder(recorder);

  const fault::InvariantReport report = checker.run();
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.bundle_path, path);

  // Verdicts landed in the coverage map alongside the transport key.
  EXPECT_EQ(trace.coverage().count("invariant.always_true.pass"), 1u);
  EXPECT_EQ(trace.coverage().count("invariant.brake_chain_alive.fail"), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream raw;
  raw << in.rdbuf();
  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(raw.str(), &doc, &error)) << error;
  const obs::json::Value& bundle = doc.at("postmortem");
  EXPECT_DOUBLE_EQ(bundle.at("seed").number, 99.0);
  EXPECT_EQ(bundle.at("verdict").string, "brake_chain_alive");
  EXPECT_EQ(bundle.at("detail").string, "no frames for 40ms");
  EXPECT_DOUBLE_EQ(bundle.at("metrics").at("counters").at("mw.sent").number,
                   5.0);
  EXPECT_DOUBLE_EQ(bundle.at("coverage").at("transport.retransmit").number,
                   2.0);
  ASSERT_EQ(bundle.at("trace_tail").size(), 1u);
  EXPECT_EQ(bundle.at("trace_tail")[0].at("name").string, "heartbeat");

  // A second run() sees the same violation but must not rewrite the bundle:
  // later failures are cascade noise, the first snapshot is the evidence.
  std::remove(path.c_str());
  const fault::InvariantReport again = checker.run();
  EXPECT_FALSE(again.passed);
  EXPECT_TRUE(again.bundle_path.empty());
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(Invariants, FailOperationalPropertiesHoldUnderCrashCampaign) {
  RedundantWorld world;
  RedundancyManager redundancy(world.platform, "Pilot");
  redundancy.engage();

  fault::FaultCampaign campaign(world.simulator, fault::CampaignConfig{});
  campaign.add_ecu(world.vehicle.ecu("A"));
  fault::FaultEvent crash;
  crash.at = 500 * sim::kMillisecond;
  crash.kind = fault::FaultKind::kEcuCrash;
  crash.target = "A";
  campaign.schedule(crash);
  campaign.arm();
  world.simulator.run_until(sim::seconds(2));

  fault::InvariantChecker checker;
  checker.require_failover_outage_below(redundancy, 200 * sim::kMillisecond);
  checker.require_no_da_deadline_misses(world.platform);
  checker.require_faults_detected(campaign, world.platform, &redundancy);
  checker.require_no_stranded_reassembly(world.platform);
  const fault::InvariantReport report = checker.run();
  EXPECT_TRUE(report.passed) << report.summary();
}

}  // namespace
}  // namespace dynaplat::platform
