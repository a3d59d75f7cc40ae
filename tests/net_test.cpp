// Unit tests for the network media models: CAN arbitration, Ethernet
// priority queuing, TSN gating and FlexRay segments.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/can_bus.hpp"
#include "net/ethernet.hpp"
#include "net/flexray.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace dynaplat::net {
namespace {

Frame make_frame(std::uint32_t flow, NodeId src, NodeId dst, Priority prio,
                 std::size_t bytes) {
  Frame f;
  f.flow_id = flow;
  f.src = src;
  f.dst = dst;
  f.priority = prio;
  f.payload.assign(bytes, 0xAB);
  return f;
}

// --- CAN ---------------------------------------------------------------------

TEST(CanBus, FrameDurationMatchesBitModel) {
  sim::Simulator simulator;
  CanBus bus(simulator, "can0", CanBusConfig{.bitrate_bps = 500'000});
  // 8-byte frame: 44 + 64 data bits + stuff((34+64-1)/4 = 24) + 3 ifs
  // = 135 bits at 500 kbit/s = 270 us.
  EXPECT_EQ(bus.frame_duration(8), 270'000);
  // 0-byte frame: 44 + 8 stuff + 3 = 55 bits = 110 us.
  EXPECT_EQ(bus.frame_duration(0), 110'000);
}

TEST(CanBus, DeliversBroadcastToAllExceptSender) {
  sim::Simulator simulator;
  CanBus bus(simulator, "can0", {});
  int node1_rx = 0, node2_rx = 0, sender_rx = 0;
  bus.attach(0, [&](const Frame&) { ++sender_rx; });
  bus.attach(1, [&](const Frame&) { ++node1_rx; });
  bus.attach(2, [&](const Frame&) { ++node2_rx; });
  bus.send(make_frame(1, 0, kBroadcast, 0, 8));
  simulator.run();
  EXPECT_EQ(node1_rx, 1);
  EXPECT_EQ(node2_rx, 1);
  EXPECT_EQ(sender_rx, 0);
}

TEST(CanBus, LowerIdWinsArbitration) {
  sim::Simulator simulator;
  CanBus bus(simulator, "can0", {});
  std::vector<std::uint32_t> order;
  bus.attach(9, [&](const Frame& f) { order.push_back(f.flow_id); });
  // Occupy the bus, then enqueue high- and low-priority frames; the
  // low-priority one was submitted first but must lose arbitration.
  bus.send(make_frame(50, 1, kBroadcast, 3, 8));
  bus.send(make_frame(60, 2, kBroadcast, 7, 8));  // low prio, sent first
  bus.send(make_frame(70, 3, kBroadcast, 0, 8));  // high prio, sent second
  simulator.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 50u);
  EXPECT_EQ(order[1], 70u);  // priority 0 beat priority 7
  EXPECT_EQ(order[2], 60u);
}

TEST(CanBus, NonPreemptiveBlockingDelaysUrgentFrameByOneFrame) {
  sim::Simulator simulator;
  CanBus bus(simulator, "can0", {});
  sim::Time urgent_delivered = 0;
  bus.attach(9, [&](const Frame& f) {
    if (f.flow_id == 2) urgent_delivered = simulator.now();
  });
  bus.send(make_frame(1, 1, kBroadcast, 7, 8));  // starts transmitting
  simulator.schedule_at(1000, [&] {
    bus.send(make_frame(2, 2, kBroadcast, 0, 8));  // urgent, must wait
  });
  simulator.run();
  // Urgent frame waits for the in-flight frame (270us) then transmits.
  EXPECT_EQ(urgent_delivered, 270'000 + 270'000);
}

TEST(CanBus, PerFlowFifoOrderPreserved) {
  sim::Simulator simulator;
  CanBus bus(simulator, "can0", {});
  std::vector<std::uint64_t> seqs;
  bus.attach(9, [&](const Frame& f) { seqs.push_back(f.seq); });
  for (int i = 0; i < 5; ++i) bus.send(make_frame(7, 1, kBroadcast, 2, 4));
  simulator.run();
  ASSERT_EQ(seqs.size(), 5u);
  for (std::size_t i = 1; i < seqs.size(); ++i) EXPECT_LT(seqs[i - 1], seqs[i]);
}

// Randomized sends (single frames and bursts, at random instants, many of
// them while a frame is on the wire, some from inside a delivery) against a
// reference arbiter: whenever the bus goes idle, the pending frame with the
// smallest (arbitration id, send order) transmits next.
TEST(CanBus, RandomInterleavedSendsMatchReferenceArbitration) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    sim::Simulator simulator;
    CanBus bus(simulator, "can0", {});
    sim::Random rng(seed);
    using Key = std::pair<std::uint32_t, std::uint32_t>;  // (id, send index)
    std::set<Key> pending;
    std::optional<Key> on_wire;
    std::vector<Key> expected;
    std::vector<Key> delivered;
    std::uint32_t sent = 0;

    auto arbitrate = [&] {
      if (on_wire || pending.empty()) return;
      on_wire = *pending.begin();
      pending.erase(pending.begin());
      expected.push_back(*on_wire);
    };
    // Few flows and priorities, so ids repeat and FIFO order per id counts.
    // The payload carries the send index.
    auto next_frame = [&] {
      Frame f = make_frame(static_cast<std::uint32_t>(rng.next_below(4)), 1,
                           kBroadcast, static_cast<Priority>(rng.next_below(3)),
                           4 + rng.next_below(5));
      for (int b = 0; b < 4; ++b) {
        f.payload[b] = static_cast<std::uint8_t>(sent >> (8 * b));
      }
      pending.emplace(bus.arbitration_id(f), sent++);
      return f;
    };
    auto send_one = [&] {
      bus.send(next_frame());
      arbitrate();
      EXPECT_EQ(bus.queued(), pending.size());
    };
    auto send_burst = [&] {
      std::vector<Frame> burst;
      const auto n = 2 + rng.next_below(3);
      for (std::uint64_t i = 0; i < n; ++i) burst.push_back(next_frame());
      bus.send_batch(burst);
      arbitrate();
      EXPECT_EQ(bus.queued(), pending.size());
    };

    bus.attach(9, [&](const Frame& f) {
      std::uint32_t index = 0;
      for (int b = 0; b < 4; ++b) {
        index |= std::uint32_t{f.payload[b]} << (8 * b);
      }
      EXPECT_EQ(f.seq, index);
      delivered.emplace_back(bus.arbitration_id(f), index);
      on_wire.reset();
      // The bus is idle during delivery: an answer sent now joins the next
      // arbitration round.
      if (rng.chance(0.2)) send_one();
      arbitrate();
    });
    for (int i = 0; i < 200; ++i) {
      simulator.schedule_at(
          static_cast<sim::Time>(rng.next_below(50 * sim::kMillisecond)), [&] {
            if (rng.chance(0.3)) {
              send_burst();
            } else {
              send_one();
            }
          });
    }
    simulator.run();
    EXPECT_GT(sent, 200u);
    EXPECT_EQ(delivered.size(), sent);
    EXPECT_EQ(delivered, expected) << "seed " << seed;
    EXPECT_EQ(bus.queued(), 0u);
    EXPECT_EQ(bus.frames_parked(), 0u);
  }
}

TEST(CanBusFd, CarriesUpTo64BytesFasterThanClassic) {
  sim::Simulator simulator;
  CanBusConfig fd_config;
  fd_config.fd = true;
  CanBus fd(simulator, "canfd", fd_config);
  CanBus classic(simulator, "can", CanBusConfig{});
  EXPECT_EQ(fd.max_payload(), 64u);
  // An 8-byte FD frame beats the classic frame (data phase at 4x rate).
  EXPECT_LT(fd.frame_duration(8), classic.frame_duration(8));
  // 64 bytes in one FD frame beat 8 classic frames.
  EXPECT_LT(fd.frame_duration(64), 8 * classic.frame_duration(8));
}

TEST(CanBusFd, DeliversLargeFrames) {
  sim::Simulator simulator;
  CanBusConfig config;
  config.fd = true;
  CanBus bus(simulator, "canfd", config);
  std::size_t got = 0;
  bus.attach(9, [&](const Frame& f) { got = f.payload.size(); });
  bus.send(make_frame(1, 1, kBroadcast, 0, 64));
  simulator.run();
  EXPECT_EQ(got, 64u);
}

TEST(CanBus, LatencyStatsArePopulated) {
  sim::Simulator simulator;
  CanBus bus(simulator, "can0", {});
  bus.attach(9, [](const Frame&) {});
  bus.send(make_frame(1, 1, kBroadcast, 0, 8));
  simulator.run();
  EXPECT_EQ(bus.frames_delivered(), 1u);
  EXPECT_EQ(bus.latency_stats().count(), 1u);
  EXPECT_EQ(bus.latency_stats().mean(), 270'000.0);
}

// --- Ethernet ----------------------------------------------------------------

TEST(Ethernet, UnicastReachesOnlyDestination) {
  sim::Simulator simulator;
  EthernetSwitch sw(simulator, "eth0", {});
  int rx1 = 0, rx2 = 0;
  sw.attach(1, [&](const Frame&) { ++rx1; });
  sw.attach(2, [&](const Frame&) { ++rx2; });
  sw.attach(3, [](const Frame&) {});
  sw.send(make_frame(1, 3, 1, 0, 100));
  simulator.run();
  EXPECT_EQ(rx1, 1);
  EXPECT_EQ(rx2, 0);
}

TEST(Ethernet, LatencyIncludesTwoHopsAndProcessing) {
  sim::Simulator simulator;
  EthernetConfig config;
  config.link_bps = 100'000'000;
  EthernetSwitch sw(simulator, "eth0", config);
  sim::Time delivered = 0;
  sw.attach(1, [&](const Frame&) { delivered = simulator.now(); });
  sw.attach(2, [](const Frame&) {});
  sw.send(make_frame(1, 2, 1, 0, 100));
  simulator.run();
  // On wire: (100+22+20) bytes * 8 = 1136 bits at 100 Mbit/s = 11.36 us per
  // hop; two hops + processing + 2x propagation.
  const sim::Duration hop = sw.frame_duration(100);
  EXPECT_EQ(delivered, 2 * hop + EthernetSwitch::kProcessingDelay +
                           2 * EthernetSwitch::kPropagationDelay);
}

TEST(Ethernet, StrictPriorityServesUrgentFirst) {
  sim::Simulator simulator;
  EthernetConfig config;
  config.link_bps = 10'000'000;  // slow link to force queuing
  EthernetSwitch sw(simulator, "eth0", config);
  std::vector<Priority> order;
  sw.attach(1, [&](const Frame& f) { order.push_back(f.priority); });
  sw.attach(2, [](const Frame&) {});
  sw.attach(3, [](const Frame&) {});
  // Node 2 floods bulk frames; node 3 sends one urgent frame. Ingress links
  // are separate, so all arrive at the egress port around the same time.
  for (int i = 0; i < 5; ++i) sw.send(make_frame(10, 2, 1, 7, 1400));
  sw.send(make_frame(20, 3, 1, 0, 64));
  simulator.run();
  ASSERT_EQ(order.size(), 6u);
  // The urgent frame overtakes all queued bulk frames except at most the one
  // already serializing on the egress link.
  std::size_t urgent_pos = order.size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 0) urgent_pos = i;
  }
  EXPECT_LE(urgent_pos, 1u);
}

TEST(Ethernet, EgressQueueOverflowDrops) {
  sim::Simulator simulator;
  EthernetConfig config;
  config.link_bps = 10'000'000;
  config.queue_capacity = 4;
  EthernetSwitch sw(simulator, "eth0", config);
  sw.attach(1, [](const Frame&) {});
  sw.attach(2, [](const Frame&) {});
  sw.attach(3, [](const Frame&) {});
  // Two ingress links feed one egress link at 2x its drain rate: the egress
  // queue must overflow.
  for (int i = 0; i < 50; ++i) {
    sw.send(make_frame(1, 2, 1, 7, 1400));
    sw.send(make_frame(2, 3, 1, 7, 1400));
  }
  simulator.run();
  EXPECT_GT(sw.egress_drops(), 0u);
  EXPECT_LT(sw.frames_delivered(), 100u);
}

TEST(Ethernet, TsnGateBlocksLowPriorityDuringTtWindow) {
  sim::Simulator simulator;
  EthernetConfig config;
  config.link_bps = 100'000'000;
  EthernetSwitch sw(simulator, "eth0", config);
  // 1 ms cycle, first 200 us exclusive to priority 0.
  sw.set_gate_control(1, GateControlList::tt_window(sim::kMillisecond,
                                                    200 * sim::kMicrosecond,
                                                    0));
  sim::Time bulk_delivered = 0;
  sw.attach(1, [&](const Frame& f) {
    if (f.priority == 7) bulk_delivered = simulator.now();
  });
  sw.attach(2, [](const Frame&) {});
  // A bulk frame arriving during the TT window must wait for the window end.
  sw.send(make_frame(1, 2, 1, 7, 100));
  simulator.run();
  EXPECT_GE(bulk_delivered, 200 * sim::kMicrosecond);
}

TEST(Ethernet, TsnTtFrameSailsThroughItsWindow) {
  sim::Simulator simulator;
  EthernetSwitch sw(simulator, "eth0", {});
  sw.set_gate_control(1, GateControlList::tt_window(sim::kMillisecond,
                                                    200 * sim::kMicrosecond,
                                                    0));
  sim::Time delivered = 0;
  sw.attach(1, [&](const Frame&) { delivered = simulator.now(); });
  sw.attach(2, [](const Frame&) {});
  sw.send(make_frame(1, 2, 1, 0, 64));
  simulator.run();
  // Delivered within the first TT window.
  EXPECT_LT(delivered, 200 * sim::kMicrosecond);
}

// --- FlexRay -----------------------------------------------------------------

TEST(FlexRay, StaticSlotDeliversAtSlotBoundary) {
  sim::Simulator simulator;
  FlexRayConfig config;
  config.static_slots = 4;
  config.static_slot_duration = 100 * sim::kMicrosecond;
  config.minislots = 10;
  FlexRayBus bus(simulator, "fr0", config);
  bus.assign_static_slot(2, 77);  // flow 77 owns slot 2
  sim::Time delivered = 0;
  bus.attach(1, [&](const Frame&) { delivered = simulator.now(); });
  bus.attach(2, [](const Frame&) {});
  bus.send(make_frame(77, 2, kBroadcast, 0, 16));
  simulator.run();
  // First cycle starts at t=0 (send at t=0); slot 2 ends at 300 us.
  EXPECT_EQ(delivered, 300 * sim::kMicrosecond);
}

TEST(FlexRay, StaticLatencyIndependentOfDynamicLoad) {
  sim::Simulator simulator;
  FlexRayConfig config;
  FlexRayBus bus(simulator, "fr0", config);
  bus.assign_static_slot(0, 5);
  sim::Time st_delivered = 0;
  bus.attach(1, [&](const Frame& f) {
    if (f.flow_id == 5) st_delivered = simulator.now();
  });
  bus.attach(2, [](const Frame&) {});
  // Saturate the dynamic segment.
  for (int i = 0; i < 100; ++i) {
    bus.send(make_frame(1000 + static_cast<std::uint32_t>(i), 2, kBroadcast,
                        7, 200));
  }
  bus.send(make_frame(5, 2, kBroadcast, 0, 16));
  simulator.run();
  EXPECT_EQ(st_delivered, config.static_slot_duration);  // end of slot 0
}

TEST(FlexRay, DynamicSegmentArbitratesByPriority) {
  sim::Simulator simulator;
  FlexRayConfig config;
  config.minislots = 4;  // room for few frames per cycle
  FlexRayBus bus(simulator, "fr0", config);
  std::vector<std::uint32_t> order;
  bus.attach(1, [&](const Frame& f) { order.push_back(f.flow_id); });
  bus.attach(2, [](const Frame&) {});
  bus.send(make_frame(100, 2, kBroadcast, 6, 8));
  bus.send(make_frame(200, 2, kBroadcast, 1, 8));
  simulator.run();
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], 200u);  // higher priority first despite later send
}

TEST(FlexRay, OversizedDynamicFrameWaitsForNextCycle) {
  sim::Simulator simulator;
  FlexRayConfig config;
  config.minislots = 2;
  FlexRayBus bus(simulator, "fr0", config);
  int delivered = 0;
  bus.attach(1, [&](const Frame&) { ++delivered; });
  bus.attach(2, [](const Frame&) {});
  // Each 200-byte frame at 10 Mbit/s takes 168 us > 2 minislots; it can
  // never fit and must not be delivered (bounded starvation surfaces as a
  // stuck queue rather than infinite events).
  bus.send(make_frame(1, 2, kBroadcast, 5, 8));  // small frame fits
  simulator.run_until(10 * sim::kMillisecond);
  EXPECT_EQ(delivered, 1);
}

// --- Frame pool (Medium::park) ------------------------------------------------

TEST(FramePool, SteadyTrafficReusesSlots) {
  sim::Simulator simulator;
  EthernetSwitch eth(simulator, "eth0", {});
  CanBus can(simulator, "can0", {});
  FlexRayBus fr(simulator, "fr0", {});
  fr.assign_static_slot(0, 5);
  int received = 0;
  for (Medium* medium : std::initializer_list<Medium*>{&eth, &can, &fr}) {
    medium->attach(1, [&](const Frame&) { ++received; });
    medium->attach(2, [&](const Frame&) { ++received; });
  }
  // Every millisecond: unicast and broadcast Ethernet frames of three
  // classes, two CAN frames; every 5 ms a static and a dynamic FlexRay frame
  // (one 2.5 ms cycle carries both).
  const sim::EventId eth_can = simulator.schedule_every(
      0, sim::kMillisecond, [&] {
        eth.send(make_frame(1, 2, 1, 0, 64));
        eth.send(make_frame(2, 2, kBroadcast, 3, 300));
        eth.send(make_frame(3, 1, 2, 7, 1200));
        can.send(make_frame(4, 1, kBroadcast, 2, 8));
        can.send(make_frame(5, 2, kBroadcast, 1, 8));
      });
  const sim::EventId flexray = simulator.schedule_every(
      0, 5 * sim::kMillisecond, [&] {
        fr.send(make_frame(5, 2, kBroadcast, 0, 16));
        fr.send(make_frame(9, 1, kBroadcast, 4, 32));
      });
  simulator.run_until(100 * sim::kMillisecond);
  const std::size_t eth_slots = eth.frame_slots();
  const std::size_t can_slots = can.frame_slots();
  const std::size_t fr_slots = fr.frame_slots();
  EXPECT_LE(eth_slots, 6u);
  EXPECT_LE(can_slots, 2u);
  EXPECT_LE(fr_slots, 2u);
  simulator.run_until(sim::seconds(2));
  // Ten thousand deliveries later the pools have not grown.
  EXPECT_GT(received, 10'000);
  EXPECT_EQ(eth.frame_slots(), eth_slots);
  EXPECT_EQ(can.frame_slots(), can_slots);
  EXPECT_EQ(fr.frame_slots(), fr_slots);
  simulator.cancel(eth_can);
  simulator.cancel(flexray);
  simulator.run();
  EXPECT_EQ(eth.frames_parked(), 0u);
  EXPECT_EQ(can.frames_parked(), 0u);
  EXPECT_EQ(fr.frames_parked(), 0u);
}

TEST(FramePool, DestroyingMediaReleasesParkedFrames) {
  sim::Simulator simulator;
  auto eth = std::make_unique<EthernetSwitch>(simulator, "eth0",
                                              EthernetConfig{});
  auto can = std::make_unique<CanBus>(simulator, "can0", CanBusConfig{});
  auto fr = std::make_unique<FlexRayBus>(simulator, "fr0", FlexRayConfig{});
  fr->assign_static_slot(3, 5);
  for (Medium* medium :
       std::initializer_list<Medium*>{eth.get(), can.get(), fr.get()}) {
    medium->attach(1, [](const Frame&) {});
    medium->attach(2, [](const Frame&) {});
  }
  // Every frame shares one payload block with `shared`.
  const Payload shared(std::vector<std::uint8_t>(8, 0x5A));
  auto frame = [&](std::uint32_t flow, NodeId dst, Priority prio) {
    Frame f = make_frame(flow, 2, dst, prio, 0);
    f.payload = shared;
    return f;
  };
  // Static slot 3 carries one frame per 2.5 ms cycle: at 2.6 ms the second
  // is in its slot. The Ethernet and CAN frames leave at 2.59 ms and are
  // still in the switch and on the CAN wire at 2.6 ms.
  for (int i = 0; i < 4; ++i) {
    fr->send(frame(5, kBroadcast, 0));
    fr->send(frame(9, kBroadcast, 4));
  }
  simulator.schedule_at(2590 * sim::kMicrosecond, [&] {
    for (int i = 0; i < 4; ++i) {
      eth->send(frame(1, 1, 0));
      eth->send(frame(2, kBroadcast, 5));
      can->send(frame(3, kBroadcast, 1));
    }
  });
  simulator.run_until(2600 * sim::kMicrosecond);
  EXPECT_GT(eth->frames_parked(), 0u);
  EXPECT_GT(can->frames_parked(), 0u);
  EXPECT_GT(fr->frames_parked(), 0u);
  EXPECT_FALSE(shared.slice(0).buf->unique());
  // The media own every frame they hold, kernel callbacks only slot
  // indices: destroying them drops every reference (and, under ASan, leaks
  // nothing) although their events are still queued.
  eth.reset();
  can.reset();
  fr.reset();
  EXPECT_TRUE(shared.slice(0).buf->unique());
}

}  // namespace
}  // namespace dynaplat::net
