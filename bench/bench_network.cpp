// E9 -- Sec. 5.3: deterministic frame latency across media under load.
//
// One deterministic 8-byte frame flow at 100 Hz shares a medium with
// best-effort background traffic of growing intensity. Media compared:
//   can       -- 500 kbit/s CAN (priority arbitration, non-preemptive)
//   flexray   -- 10 Mbit/s FlexRay, DA flow in a static slot
//   eth_flat  -- 100 Mbit/s switched Ethernet, single priority (ablation)
//   eth_prio  -- same with 802.1Q strict priority for the DA flow
//   eth_tsn   -- same plus an 802.1Qbv gate reserving a TT window
//
// Expected shape: CAN's worst case grows by one max-frame blocking time;
// flat Ethernet queues DA frames behind bulk (p99 explodes with load);
// strict priority caps the damage at one frame serialization; TSN pins the
// worst case regardless of load (at the cost of gated bandwidth); FlexRay's
// static slot gives constant latency == slot phase.
#include <functional>
#include <memory>

#include "bench/common.hpp"
#include "obs/metrics.hpp"
#include "net/can_bus.hpp"
#include "net/ethernet.hpp"
#include "net/flexray.hpp"

using namespace dynaplat;

namespace {

struct Outcome {
  double mean_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  std::uint64_t delivered = 0;
};

Outcome run(const std::string& medium_kind, double background_load) {
  sim::Simulator simulator;
  std::unique_ptr<net::Medium> medium;
  std::size_t bulk_payload = 1400;
  std::uint64_t medium_bps = 100'000'000;

  if (medium_kind == "can") {
    medium = std::make_unique<net::CanBus>(simulator, "can",
                                           net::CanBusConfig{});
    bulk_payload = 8;
    medium_bps = 500'000;
  } else if (medium_kind == "canfd") {
    net::CanBusConfig config;
    config.fd = true;
    medium = std::make_unique<net::CanBus>(simulator, "canfd", config);
    bulk_payload = 64;
    medium_bps = 2'000'000;
  } else if (medium_kind == "flexray") {
    auto flexray = std::make_unique<net::FlexRayBus>(simulator, "fr",
                                                     net::FlexRayConfig{});
    flexray->assign_static_slot(0, 42);  // DA flow id 42 owns slot 0
    medium = std::move(flexray);
    bulk_payload = 254;
    medium_bps = 10'000'000;
  } else {
    auto eth = std::make_unique<net::EthernetSwitch>(simulator, "eth",
                                                     net::EthernetConfig{});
    if (medium_kind == "eth_tsn") {
      // 10 ms cycle with a 500 us window reserved for priority 0, phased
      // with the DA flow's releases (a TSN deployment co-designs flow
      // offsets and gate windows, Sec. 2.3).
      eth->set_gate_control(
          2, net::GateControlList::tt_window(10 * sim::kMillisecond,
                                             500 * sim::kMicrosecond, 0));
    }
    medium = std::move(eth);
  }

  obs::Histogram latency;
  std::uint64_t delivered = 0;
  medium->attach(2, [&](const net::Frame& frame) {
    if (frame.flow_id == 42) {
      latency.observe(frame.delivered_at - frame.enqueued_at);
      ++delivered;
    }
  });
  medium->attach(1, [](const net::Frame&) {});
  medium->attach(3, [](const net::Frame&) {});
  medium->attach(4, [](const net::Frame&) {});

  // Deterministic flow: node 1 -> node 2, 8 bytes every 10 ms, priority 0
  // (flat Ethernet ablation forces everything to one priority).
  const net::Priority da_priority =
      medium_kind == "eth_flat" ? net::Priority{7} : net::Priority{0};
  // Releases at 100 us into each 10 ms period: inside the TSN window for
  // eth_tsn, an arbitrary phase for everything else.
  simulator.schedule_every(100 * sim::kMicrosecond, 10 * sim::kMillisecond,
                           [&] {
    net::Frame frame;
    frame.flow_id = 42;
    frame.src = 1;
    frame.dst = 2;
    frame.priority = da_priority;
    frame.payload.assign(8, 0xDA);
    medium->send(std::move(frame));
  });

  // Background: nodes 3 and 4 send *bursts* of bulk frames to node 2 at
  // the requested average fraction of the egress capacity. Two senders
  // matter on the switch: their ingress links aggregate to twice the
  // egress drain rate, so bursts genuinely queue at the egress port.
  if (background_load > 0.0) {
    const std::size_t burst = 8;  // per sender, 16 aggregate
    const double bits_per_frame = static_cast<double>(bulk_payload + 42) * 8;
    const double frames_per_s_per_sender =
        background_load * static_cast<double>(medium_bps) / bits_per_frame /
        2.0;
    const auto burst_interval = static_cast<sim::Duration>(
        1e9 * burst / frames_per_s_per_sender);
    std::uint32_t bulk_flow = 100;
    for (net::NodeId sender : {net::NodeId{3}, net::NodeId{4}}) {
      simulator.schedule_every(burst_interval / 2, burst_interval,
                               [&, sender, bulk_flow]() mutable {
                                 for (std::size_t i = 0; i < burst; ++i) {
                                   net::Frame frame;
                                   frame.flow_id = bulk_flow++;
                                   frame.src = sender;
                                   frame.dst = 2;
                                   frame.priority = 7;
                                   frame.payload.assign(bulk_payload, 0xBE);
                                   medium->send(std::move(frame));
                                 }
                               });
    }
  }

  simulator.run_until(sim::seconds(10));
  Outcome outcome;
  outcome.mean_us = latency.mean() / 1000.0;
  outcome.p99_us = latency.percentile(99) / 1000.0;
  outcome.max_us = latency.max() / 1000.0;
  outcome.delivered = delivered;
  return outcome;
}

}  // namespace

int main() {
  bench::banner("E9", "DA frame latency: CAN / FlexRay / Ethernet / TSN "
                      "(Sec. 5.3)");
  bench::Table table({"medium", "bg_load", "mean_us", "p99_us", "max_us",
                      "delivered"});
  for (const char* medium :
       {"can", "canfd", "flexray", "eth_flat", "eth_prio", "eth_tsn"}) {
    for (double load : {0.0, 0.3, 0.6, 0.9}) {
      const Outcome outcome = run(medium, load);
      table.row({medium, bench::fmt(load, 1), bench::fmt(outcome.mean_us, 1),
                 bench::fmt(outcome.p99_us, 1), bench::fmt(outcome.max_us, 1),
                 bench::fmt(outcome.delivered)});
    }
  }
  return 0;
}
