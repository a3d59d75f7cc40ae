// Legacy integration scenario (paper Fig. 1): today's vehicles are "highly
// diverse" — a classic CAN body domain must coexist with the new
// Ethernet-backbone dynamic platform during the transition years.
//
// A legacy wheel-speed sensor broadcasts raw 8-byte signals on 500 kbit/s
// CAN (no middleware, no services — bit-offset signals, as Sec. 2 laments).
// A gateway ECU forwards the matching CAN flows onto the TSN backbone with
// priority remapping; a platform adapter app re-publishes them as a proper
// service-oriented interface, so modern consumers subscribe as if the
// sensor were a native platform app.
#include <cstdio>
#include <memory>

#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "platform/vehicle.hpp"

using namespace dynaplat;

namespace {

constexpr std::uint32_t kWheelSpeedCanId = 0x120;

const char* kModel = R"(
network Backbone kind=tsn bitrate=1G
# The legacy body domain: no platform ECU sits on it (see the gateway below).
network BodyCan kind=can bitrate=500K
ecu Central mips=5000 memory=512M asil=D network=Backbone
ecu GatewayEcu mips=400 memory=64M asil=D network=Backbone

interface WheelSpeed paradigm=event payload=8 period=20ms

# The adapter app owns the modern interface; the raw CAN signal feeds it.
app CanAdapter class=deterministic asil=B memory=2M
  task poll period=20ms wcet=20K priority=1
  provides WheelSpeed

app Stability class=deterministic asil=B memory=8M
  task control period=20ms wcet=400K priority=1
  consumes WheelSpeed

deploy CanAdapter -> GatewayEcu
deploy Stability -> Central
)";

/// Bridges raw CAN frames (delivered to the gateway ECU via the Router)
/// into the service-oriented world.
class CanAdapterApp final : public platform::Application {
 public:
  void on_raw_frame(const net::Frame& frame) {
    if (frame.payload.size() >= 2) {
      latest_raw_ = static_cast<std::uint16_t>(frame.payload[0] |
                                               (frame.payload[1] << 8));
      ++frames_seen_;
    }
  }
  void on_task(const std::string&) override {
    if (!active()) return;
    middleware::PayloadWriter writer;
    writer.f64(static_cast<double>(latest_raw_) * 0.01);  // raw -> m/s
    context_.comm->publish(context_.service_id("WheelSpeed"), 1,
                           writer.take(),
                           context_.priority_of("WheelSpeed"));
  }
  std::uint64_t frames_seen() const { return frames_seen_; }

 private:
  std::uint16_t latest_raw_ = 0;
  std::uint64_t frames_seen_ = 0;
};

}  // namespace

int main() {
  std::printf("== legacy CAN domain behind a gateway ==\n\n");
  sim::Simulator simulator;
  platform::Vehicle vehicle(simulator, model::parse_system(kModel));
  platform::DynamicPlatform& dp = vehicle.platform();
  net::Medium& body_can = vehicle.medium("BodyCan");
  os::Ecu& gateway_ecu = vehicle.ecu("GatewayEcu");

  CanAdapterApp* adapter = nullptr;
  dp.register_app("CanAdapter", [&adapter] {
    auto app = std::make_unique<CanAdapterApp>();
    adapter = app.get();
    return app;
  });
  dp.register_app("Stability",
                  [] { return std::make_unique<platform::Application>(); });
  std::string reason;
  if (!dp.install_all(&reason)) {
    std::printf("install failed: %s\n", reason.c_str());
    return 1;
  }

  // The gateway ECU's second network interface: its CAN controller. Raw
  // frames with the wheel-speed CAN id land in the adapter app; everything
  // else is filtered. Reception costs gateway CPU (the 400 MIPS core).
  // (For pure frame-level forwarding between media without an adapter app,
  // net::Router does the same declaratively — see extensions_test.cpp.)
  body_can.attach(20, [&](const net::Frame& frame) {
    if (frame.flow_id == kWheelSpeedCanId && adapter != nullptr) {
      gateway_ecu.processor().submit(
          "can_rx", 2'000, 5, os::TaskClass::kNonDeterministic,
          [&, frame] { adapter->on_raw_frame(frame); });
    }
  });

  // The legacy sensor: broadcasts every 20 ms, plus unrelated body chatter.
  std::uint16_t raw_speed = 0;
  simulator.schedule_every(sim::kMillisecond, 20 * sim::kMillisecond, [&] {
    net::Frame frame;
    frame.flow_id = kWheelSpeedCanId;
    frame.src = 21;
    frame.priority = 1;
    raw_speed = static_cast<std::uint16_t>(raw_speed + 7);
    frame.payload = {static_cast<std::uint8_t>(raw_speed),
                     static_cast<std::uint8_t>(raw_speed >> 8),
                     0, 0, 0, 0, 0, 0};
    body_can.send(std::move(frame));
  });
  simulator.schedule_every(500 * sim::kMicrosecond, sim::kMillisecond, [&] {
    net::Frame chatter;
    chatter.flow_id = 0x300;  // door module noise, filtered at the gateway
    chatter.src = 22;
    chatter.priority = 6;
    chatter.payload.assign(8, 0x00);
    body_can.send(std::move(chatter));
  });

  // Modern consumer on the backbone.
  std::uint64_t modern_events = 0;
  double last_speed = 0.0;
  dp.node("Central")->comm().subscribe(
      dp.service_id("WheelSpeed"), 1,
      [&](std::vector<std::uint8_t> data, net::NodeId) {
        middleware::PayloadReader reader(data);
        last_speed = reader.f64();
        ++modern_events;
      });

  simulator.run_until(sim::seconds(10));

  std::printf("after 10 s simulated:\n");
  std::printf("  CAN frames on the body bus: %llu (incl. chatter)\n",
              static_cast<unsigned long long>(body_can.frames_delivered()));
  std::printf("  wheel-speed frames seen by the adapter: %llu\n",
              static_cast<unsigned long long>(adapter->frames_seen()));
  std::printf("  service-oriented WheelSpeed events at Central: %llu "
              "(last %.2f m/s)\n",
              static_cast<unsigned long long>(modern_events), last_speed);
  std::printf("\nThe gateway + adapter pattern lets the dynamic platform "
              "consume legacy\nsignals as first-class services during the "
              "architecture transition.\n");
  return 0;
}
