// E2 -- Fig. 3 / Sec. 2.1: the three communication paradigms.
//
// Two ECUs on a 100 Mbit/s switched backbone. Measured in simulated time:
//   Event   -- one-way publish -> subscriber delivery latency vs payload,
//              plus fan-out scaling (1..16 subscribers on distinct ECUs).
//   Message -- RPC request -> response round-trip latency vs payload.
//   Stream  -- sustained sequenced transfer: goodput and loss.
//
// Expected shape: event latency ~ linear in payload (serialization bound);
// RPC ~ 2x event + server CPU; stream goodput approaches the line rate
// minus protocol overhead; fan-out multiplies producer-side cost linearly.
#include <memory>

#include "bench/common.hpp"
#include "obs/metrics.hpp"
#include "middleware/runtime.hpp"
#include "net/can_bus.hpp"
#include "net/ethernet.hpp"

using namespace dynaplat;

namespace {

struct Net {
  explicit Net(std::size_t nodes, bool over_can = false) {
    if (over_can) {
      medium = std::make_unique<net::CanBus>(simulator, "can",
                                             net::CanBusConfig{});
    } else {
      medium = std::make_unique<net::EthernetSwitch>(simulator, "eth",
                                                     net::EthernetConfig{});
    }
    for (std::size_t i = 0; i < nodes; ++i) {
      os::EcuConfig config;
      config.name = "ecu" + std::to_string(i);
      config.cpu.mips = 1000;
      config.seed = 50 + i;
      ecus.push_back(std::make_unique<os::Ecu>(
          simulator, config, medium.get(), static_cast<net::NodeId>(i + 1)));
      ecus.back()->processor().start();
      runtimes.push_back(
          std::make_unique<middleware::ServiceRuntime>(*ecus.back()));
    }
  }

  sim::Simulator simulator;
  std::unique_ptr<net::Medium> medium;
  std::vector<std::unique_ptr<os::Ecu>> ecus;
  std::vector<std::unique_ptr<middleware::ServiceRuntime>> runtimes;
};

}  // namespace

int main() {
  bench::banner("E2", "communication paradigms (Fig. 3, Sec. 2.1)");

  // --- Event latency vs payload -------------------------------------------------
  {
    bench::Table table(
        {"paradigm", "payload_B", "mean_us", "p99_us", "max_us", "n"});
    for (std::size_t payload : {8u, 64u, 256u, 1024u, 4096u, 8192u}) {
      Net net(2);
      net.runtimes[0]->offer(1);
      obs::Histogram latency;
      std::vector<sim::Time> sent_at;
      net.runtimes[1]->subscribe(
          1, 1, [&](std::vector<std::uint8_t>, net::NodeId) {
            latency.observe(net.simulator.now() - sent_at[latency.count()]);
          });
      net.simulator.run_until(10 * sim::kMillisecond);
      const int messages = 200;
      for (int i = 0; i < messages; ++i) {
        net.simulator.schedule_at(
            net.simulator.now() + (i + 1) * sim::kMillisecond, [&, payload] {
              sent_at.push_back(net.simulator.now());
              net.runtimes[0]->publish(
                  1, 1, std::vector<std::uint8_t>(payload, 0x55), 3);
            });
      }
      net.simulator.run_until(sim::seconds(2));
      table.row({"event", bench::fmt(payload),
                 bench::fmt(latency.mean() / 1000.0, 1),
                 bench::fmt(latency.percentile(99) / 1000.0, 1),
                 bench::fmt(latency.max() / 1000.0, 1),
                 bench::fmt(latency.count())});
    }

    // --- RPC round-trip vs payload ---------------------------------------------
    for (std::size_t payload : {8u, 64u, 256u, 1024u, 4096u}) {
      Net net(2);
      net.runtimes[0]->offer(2);
      net.runtimes[0]->provide_method(
          2, 1, [payload](const std::vector<std::uint8_t>&) {
            return std::vector<std::uint8_t>(payload, 0xAA);
          });
      obs::Histogram latency;
      net.simulator.run_until(10 * sim::kMillisecond);
      const int calls = 200;
      for (int i = 0; i < calls; ++i) {
        net.simulator.schedule_at(
            net.simulator.now() + (i + 1) * sim::kMillisecond, [&, payload] {
              const sim::Time start = net.simulator.now();
              net.runtimes[1]->call(
                  2, 1, std::vector<std::uint8_t>(payload, 0x11),
                  [&latency, start, &net](bool ok,
                                          std::vector<std::uint8_t>) {
                    if (ok) {
                      latency.observe(net.simulator.now() - start);
                    }
                  });
            });
      }
      net.simulator.run_until(sim::seconds(2));
      table.row({"message_rpc", bench::fmt(payload),
                 bench::fmt(latency.mean() / 1000.0, 1),
                 bench::fmt(latency.percentile(99) / 1000.0, 1),
                 bench::fmt(latency.max() / 1000.0, 1),
                 bench::fmt(latency.count())});
    }
  }

  // --- SOA over CAN vs Ethernet (why SOA pushes towards Ethernet, Sec. 1) ---
  {
    std::printf("\n");
    bench::Table table({"medium", "payload_B", "event_mean_us", "frames"});
    for (const bool over_can : {true, false}) {
      for (std::size_t payload : {8u, 64u, 256u}) {
        Net net(2, over_can);
        net.runtimes[0]->offer(1);
        obs::Histogram latency;
        std::vector<sim::Time> sent_at;
        net.runtimes[1]->subscribe(
            1, 1, [&](std::vector<std::uint8_t>, net::NodeId) {
              latency.observe(net.simulator.now() - sent_at[latency.count()]);
            });
        net.simulator.run_until(200 * sim::kMillisecond);
        for (int i = 0; i < 50; ++i) {
          net.simulator.schedule_at(
              net.simulator.now() + (i + 1) * 20 * sim::kMillisecond,
              [&, payload] {
                sent_at.push_back(net.simulator.now());
                net.runtimes[0]->publish(
                    1, 1, std::vector<std::uint8_t>(payload, 0x55), 3);
              });
        }
        net.simulator.run_until(sim::seconds(5));
        // Frames per message: header (21 B) + payload through the
        // transport's fragmenter on this medium.
        middleware::Transport probe([](net::Frame) {},
                                    net.medium->max_payload(), net.simulator);
        table.row({over_can ? "can_500k" : "eth_100M", bench::fmt(payload),
                   bench::fmt(latency.mean() / 1000.0, 1),
                   bench::fmt(probe.fragments_for(
                       payload + middleware::MessageHeader::kWireSize))});
      }
    }
  }

  // --- Stream goodput ---------------------------------------------------------------
  {
    std::printf("\n");
    bench::Table table({"stream_rate_mbps", "goodput_mbps", "loss_frames",
                        "mean_latency_us"});
    for (double rate_mbps : {10.0, 40.0, 70.0, 95.0}) {
      Net net(2);
      net.runtimes[0]->offer(3);
      std::uint64_t received_bytes = 0;
      net.runtimes[1]->subscribe_stream(
          3, 1, [&](std::uint32_t, std::vector<std::uint8_t> data) {
            received_bytes += data.size();
          });
      net.simulator.run_until(10 * sim::kMillisecond);
      const std::size_t frame_bytes = 1400;
      const double frames_per_s = rate_mbps * 1e6 / 8.0 / frame_bytes;
      const auto interval =
          static_cast<sim::Duration>(1e9 / frames_per_s);
      const sim::Time start = net.simulator.now();
      const sim::Duration span = sim::seconds(1);
      for (sim::Time t = start; t < start + span; t += interval) {
        net.simulator.schedule_at(t, [&] {
          net.runtimes[0]->stream_send(
              3, 1, std::vector<std::uint8_t>(frame_bytes, 0x77));
        });
      }
      net.simulator.run_until(start + span + 100 * sim::kMillisecond);
      const double goodput =
          static_cast<double>(received_bytes) * 8.0 / 1e6 /
          sim::to_s(span);
      table.row({bench::fmt(rate_mbps, 0), bench::fmt(goodput, 1),
                 bench::fmt(net.runtimes[1]->stream_losses(3, 1)),
                 bench::fmt(net.medium->latency_stats().mean() / 1000.0, 1)});
    }
  }

  // --- Event fan-out ---------------------------------------------------------------------
  {
    std::printf("\n");
    bench::Table table({"subscribers", "delivery_p99_us", "producer_msgs",
                        "all_delivered"});
    for (std::size_t fanout : {1u, 2u, 4u, 8u, 16u}) {
      Net net(fanout + 1);
      net.runtimes[0]->offer(4);
      std::uint64_t deliveries = 0;
      obs::Histogram latency;
      sim::Time sent_at = 0;
      for (std::size_t s = 1; s <= fanout; ++s) {
        net.runtimes[s]->subscribe(
            4, 1, [&](std::vector<std::uint8_t>, net::NodeId) {
              ++deliveries;
              latency.observe(net.simulator.now() - sent_at);
            });
      }
      net.simulator.run_until(20 * sim::kMillisecond);
      const int rounds = 100;
      std::uint64_t expected = 0;
      for (int i = 0; i < rounds; ++i) {
        net.simulator.schedule_at(
            net.simulator.now() + (i + 1) * 2 * sim::kMillisecond, [&] {
              sent_at = net.simulator.now();
              net.runtimes[0]->publish(
                  4, 1, std::vector<std::uint8_t>(64, 0x99), 3);
            });
        expected += fanout;
      }
      net.simulator.run_until(sim::seconds(1));
      table.row({bench::fmt(fanout),
                 bench::fmt(latency.percentile(99) / 1000.0, 1),
                 bench::fmt(net.runtimes[0]->messages_sent()),
                 deliveries == expected ? "yes" : "NO"});
    }
  }
  return 0;
}
