// vehicle_steady: one fault-free, full-stack vehicle simulated for a long
// stretch on one thread.
//
// Nine platform ECUs share a switched Ethernet/TSN backbone; three legacy
// body ECUs broadcast raw signals on a 500 kbit/s CAN bus that a
// net::Router bridges onto the backbone, where the Gateway ECU's adapter
// apps re-publish them as services. Deterministic (DA) and
// non-deterministic (NDA) apps use event, RPC and stream, with payloads
// from 8 B to multi-fragment. Every payload starts with its send time, so
// receivers measure publish-to-handler latency, and every flow is checked
// for conservation: sent x subscribers = delivered + counted losses.
#include <map>
#include <memory>
#include <string>

#include "model/parser.hpp"
#include "model/verifier.hpp"
#include "net/can_bus.hpp"
#include "net/ethernet.hpp"
#include "net/router.hpp"
#include "platform/platform.hpp"
#include "seed.hpp"
#include "sim/random.hpp"
#include "spans.hpp"
#include "vehicle_layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dynaplat;

/// Simulated length of one unit, and the window whose traffic is audited:
/// after discovery settled, ending early enough that everything in flight
/// is delivered before the unit stops.
constexpr sim::Time kUnitEnd = 60 * sim::kSecond;
constexpr sim::Time kWindowStart = 1 * sim::kSecond;
constexpr sim::Time kWindowEnd = kUnitEnd - 500 * sim::kMillisecond;

const char* kSystem = R"(
network Backbone kind=tsn bitrate=1G
ecu Central mips=8000 memory=1G asil=D network=Backbone
ecu Adas mips=6000 memory=512M asil=D network=Backbone
ecu Chassis mips=1500 memory=128M asil=D network=Backbone
ecu Powertrain mips=1200 memory=128M asil=D network=Backbone
ecu Gateway mips=800 memory=64M asil=D network=Backbone
ecu ZoneFront mips=600 memory=64M asil=D network=Backbone
ecu ZoneRear mips=600 memory=64M asil=B network=Backbone
ecu Infotainment mips=4000 memory=1G asil=QM network=Backbone
ecu Telematics mips=800 memory=128M asil=QM network=Backbone

interface WheelSpeed paradigm=event payload=8 period=10ms max_latency=5ms
interface BrakeStatus paradigm=event payload=16 period=10ms max_latency=5ms
interface SteerStatus paradigm=event payload=16 period=10ms max_latency=5ms
interface TorqueCmd paradigm=event payload=32 period=10ms max_latency=5ms
interface BodyStatus paradigm=event payload=24 period=50ms
interface ObjectList paradigm=stream payload=6000 period=25ms bandwidth=2M
interface CabinVideo paradigm=stream payload=1400 period=10ms bandwidth=2M
interface Route paradigm=message payload=64
interface DiagUpload paradigm=message payload=4096

app WheelAdapter class=deterministic asil=D memory=2M
  task sample period=10ms wcet=20K priority=1
  provides WheelSpeed
app BodyAdapter class=nondeterministic asil=QM memory=2M
  task poll period=50ms wcet=30K priority=6
  provides BodyStatus
app Brake class=deterministic asil=D memory=4M
  task control period=10ms wcet=200K priority=1
  provides BrakeStatus
  consumes WheelSpeed
app Steering class=deterministic asil=D memory=4M
  task control period=10ms wcet=150K priority=1
  provides SteerStatus
  consumes WheelSpeed
app PowertrainCtl class=deterministic asil=D memory=4M
  task control period=10ms wcet=150K priority=1
  provides TorqueCmd
  consumes BrakeStatus
app Perception class=nondeterministic asil=QM memory=64M
  task detect period=25ms wcet=20M priority=4
  provides ObjectList
app Planner class=deterministic asil=D memory=16M
  task plan period=20ms wcet=2M priority=1
  consumes SteerStatus
  consumes BrakeStatus
app Navigation class=nondeterministic asil=QM memory=64M
  task idle period=100ms wcet=1M priority=10
  provides Route
app Hmi class=nondeterministic asil=QM memory=64M
  task frame period=50ms wcet=4M priority=6
  consumes Route
  consumes BodyStatus
  consumes TorqueCmd
  consumes CabinVideo
  consumes ObjectList
app CabinCamera class=nondeterministic asil=QM memory=8M
  task capture period=10ms wcet=100K priority=5
  provides CabinVideo
app Uplink class=nondeterministic asil=QM memory=16M
  task flush period=100ms wcet=500K priority=8
  provides DiagUpload
app Logger class=nondeterministic asil=QM memory=16M
  task rotate period=100ms wcet=200K priority=9
  consumes WheelSpeed
  consumes BrakeStatus
  consumes SteerStatus
  consumes TorqueCmd
  consumes BodyStatus
app Diagnostics class=nondeterministic asil=QM memory=8M
  task report period=100ms wcet=300K priority=7
  consumes DiagUpload
app Lighting class=nondeterministic asil=QM memory=2M
  task update period=50ms wcet=50K priority=6
  consumes BodyStatus

deploy WheelAdapter -> Gateway
deploy BodyAdapter -> Gateway
deploy Brake -> Chassis
deploy Steering -> ZoneFront
deploy PowertrainCtl -> Powertrain
deploy Perception -> Adas
deploy Planner -> Central
deploy Navigation -> Infotainment
deploy Hmi -> Infotainment
deploy CabinCamera -> ZoneRear
deploy Uplink -> Telematics
deploy Logger -> Telematics
deploy Diagnostics -> ZoneRear
deploy Lighting -> ZoneFront
)";

enum class Kind { kEvent, kStream, kCall };

/// What one app sends on each activation.
struct Send {
  const char* interface;
  Kind kind;
  std::size_t min_bytes;
  std::size_t max_bytes;
};

/// A method an app serves, with its response size range.
struct Serve {
  const char* interface;
  std::size_t min_bytes;
  std::size_t max_bytes;
};

struct AppSpec {
  const char* name;
  std::vector<Send> sends;
  std::vector<std::pair<const char*, Kind>> receives;
  std::vector<Serve> serves;
};

const std::vector<AppSpec>& app_specs() {
  static const std::vector<AppSpec> specs = {
      {"WheelAdapter", {{"WheelSpeed", Kind::kEvent, 8, 8}}, {}, {}},
      {"BodyAdapter", {{"BodyStatus", Kind::kEvent, 24, 24}}, {}, {}},
      {"Brake",
       {{"BrakeStatus", Kind::kEvent, 16, 16}},
       {{"WheelSpeed", Kind::kEvent}},
       {}},
      {"Steering",
       {{"SteerStatus", Kind::kEvent, 16, 16}},
       {{"WheelSpeed", Kind::kEvent}},
       {}},
      {"PowertrainCtl",
       {{"TorqueCmd", Kind::kEvent, 32, 32}},
       {{"BrakeStatus", Kind::kEvent}},
       {}},
      {"Perception", {{"ObjectList", Kind::kStream, 2000, 6000}}, {}, {}},
      {"Planner",
       {},
       {{"SteerStatus", Kind::kEvent}, {"BrakeStatus", Kind::kEvent}},
       {}},
      {"Navigation", {}, {}, {{"Route", 512, 3000}}},
      {"Hmi",
       {{"Route", Kind::kCall, 64, 64}},
       {{"BodyStatus", Kind::kEvent},
        {"TorqueCmd", Kind::kEvent},
        {"CabinVideo", Kind::kStream},
        {"ObjectList", Kind::kStream}},
       {}},
      {"CabinCamera", {{"CabinVideo", Kind::kStream, 1000, 1400}}, {}, {}},
      {"Uplink", {}, {}, {{"DiagUpload", 16, 16}}},
      {"Logger",
       {},
       {{"WheelSpeed", Kind::kEvent},
        {"BrakeStatus", Kind::kEvent},
        {"SteerStatus", Kind::kEvent},
        {"TorqueCmd", Kind::kEvent},
        {"BodyStatus", Kind::kEvent}},
       {}},
      {"Diagnostics", {{"DiagUpload", Kind::kCall, 256, 4096}}, {}, {}},
      {"Lighting", {}, {{"BodyStatus", Kind::kEvent}}, {}},
  };
  return specs;
}

/// Per-interface audit of the window's traffic.
struct Flow {
  Kind kind = Kind::kEvent;
  std::uint64_t subscribers = 0;
  std::uint64_t sent = 0;       ///< publishes / stream sends / calls
  std::uint64_t delivered = 0;  ///< handler calls / ok responses
  std::uint64_t failed = 0;     ///< failed calls
  std::uint64_t losses_at_window = 0;
  std::uint64_t losses_at_end = 0;
};

bool in_window(sim::Time at) { return at >= kWindowStart && at < kWindowEnd; }

/// Shared state of one vehicle run that the apps report into.
struct VehicleState {
  AppStats stats;
  std::map<std::string, Flow> flows;
  std::vector<double> event_latency_us;
  std::uint64_t raw_frames = 0;
  std::uint64_t raw_fold = 0;
  std::uint16_t wheel_raw = 0;
  std::uint8_t body_raw = 0;
};

/// The benchmark app: sends what its spec lists on every task activation
/// and audits every delivery.
class BenchApp final : public platform::Application {
 public:
  BenchApp(const AppSpec& spec, VehicleState* state, std::uint64_t seed)
      : spec_(spec), state_(state), rng_(seed) {}

  void on_start(const platform::AppContext& context) override {
    Application::on_start(context);
    for (const auto& [name, kind] : spec_.receives) {
      const middleware::ServiceId id = context_.service_id(name);
      Flow* flow = &state_->flows[name];
      if (kind == Kind::kEvent) {
        context_.comm->subscribe(
            id, 1, [this, flow](std::vector<std::uint8_t> data, net::NodeId) {
              spans::Scope span(spans::kAppCallback);
              on_data(flow, data, true);
            });
      } else {
        context_.comm->subscribe_stream(
            id, 1,
            [this, flow](std::uint32_t, std::vector<std::uint8_t> data) {
              spans::Scope span(spans::kAppCallback);
              on_data(flow, data, false);
            });
      }
    }
    for (const Serve& serve : spec_.serves) {
      const std::size_t lo = serve.min_bytes;
      const std::size_t hi = serve.max_bytes;
      context_.comm->provide_method(
          context_.service_id(serve.interface), 1,
          [this, lo, hi](const std::vector<std::uint8_t>& request) {
            spans::Scope span(spans::kAppCallback);
            ++state_->stats.activations;
            // The response echoes the request's send time so the caller
            // can audit it against its window.
            std::vector<std::uint8_t> response(draw_size(lo, hi));
            put_stamp(response, static_cast<sim::Time>(get_stamp(request)));
            return response;
          });
    }
  }

  void on_task(const std::string&) override {
    spans::Scope span(spans::kAppCallback);
    ++state_->stats.activations;
    const sim::Time now = context_.simulator->now();
    for (const Send& send : spec_.sends) {
      std::vector<std::uint8_t> payload(draw_size(send.min_bytes,
                                                  send.max_bytes));
      put_stamp(payload, now);
      fill(payload);
      Flow& flow = state_->flows[send.interface];
      if (in_window(now)) ++flow.sent;
      ++state_->stats.send_calls;
      const middleware::ServiceId id = context_.service_id(send.interface);
      const net::Priority priority = context_.priority_of(send.interface);
      spans::Scope send_span(spans::kMiddlewareSend);
      switch (send.kind) {
        case Kind::kEvent:
          context_.comm->publish(id, 1, std::move(payload), priority);
          break;
        case Kind::kStream:
          context_.comm->stream_send(id, 1, std::move(payload), priority);
          break;
        case Kind::kCall: {
          Flow* audit = &flow;
          context_.comm->call(
              id, 1, std::move(payload),
              [this, audit, now](bool ok, std::vector<std::uint8_t> response) {
                spans::Scope cb(spans::kAppCallback);
                ++state_->stats.activations;
                if (!in_window(now)) return;
                if (ok) {
                  ++audit->delivered;
                  state_->stats.on_delivery(response,
                                            context_.simulator->now());
                } else {
                  ++audit->failed;
                }
              },
              priority);
          break;
        }
      }
    }
    if (spec_.name == std::string("WheelAdapter") ||
        spec_.name == std::string("BodyAdapter")) {
      // Adapters fold the latest raw CAN values they republish.
      state_->raw_fold = state_->raw_fold * 31 + state_->wheel_raw +
                         (static_cast<std::uint64_t>(state_->body_raw) << 16);
    }
  }

 private:
  void on_data(Flow* flow, const std::vector<std::uint8_t>& data,
               bool event) {
    ++state_->stats.activations;
    const std::int64_t stamp = get_stamp(data);
    if (stamp < 0 || !in_window(static_cast<sim::Time>(stamp))) return;
    ++flow->delivered;
    const sim::Time now = context_.simulator->now();
    state_->stats.on_delivery(data, now);
    if (event) {
      state_->event_latency_us.push_back(
          static_cast<double>(now - static_cast<sim::Time>(stamp)) / 1e3);
    }
  }

  std::size_t draw_size(std::size_t lo, std::size_t hi) {
    if (hi <= lo) return lo;
    return lo + static_cast<std::size_t>(rng_.next_below(hi - lo + 1));
  }

  void fill(std::vector<std::uint8_t>& payload) {
    for (std::size_t i = 8; i < payload.size(); i += 8) {
      const std::uint64_t word = rng_.next_u64();
      for (std::size_t b = 0; b < 8 && i + b < payload.size(); ++b) {
        payload[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
  }

  const AppSpec& spec_;
  VehicleState* state_;
  sim::Random rng_;
};

std::uint64_t name_hash(const std::string& text) {
  Fnv fold;
  for (const char c : text) fold.mix(static_cast<std::uint8_t>(c));
  return fold.value();
}

class VehicleSteady final : public Workload {
 public:
  explicit VehicleSteady(std::uint64_t seed) : seed_(seed) {}

  const char* item_name() const override { return "sim_s"; }

  UnitResult run_unit() override {
    UnitResult unit;
    const Clock::time_point start = Clock::now();
    sim::Simulator simulator;
    VehicleState state;

    model::ParsedSystem parsed;
    {
      spans::Scope span(spans::kModelParse);
      parsed = model::parse_system(kSystem);
    }
    {
      spans::Scope span(spans::kModelVerify);
      const model::Verifier verifier;
      for (const model::Violation& v :
           verifier.verify(parsed.model, parsed.deployment)) {
        if (v.severity == model::Severity::kError) {
          unit.errors.push_back("model verification: " + v.rule + " " +
                                v.subject + ": " + v.message);
        }
      }
      if (!unit.errors.empty()) return unit;
    }

    std::unique_ptr<net::EthernetSwitch> backbone;
    std::unique_ptr<net::CanBus> body_can;
    std::vector<std::unique_ptr<os::Ecu>> ecus;
    std::vector<std::unique_ptr<os::Ecu>> legacy;
    std::unique_ptr<platform::DynamicPlatform> dp;
    std::unique_ptr<net::Router> gateway;
    {
      spans::Scope span(spans::kPlatformInstall);
      backbone = std::make_unique<net::EthernetSwitch>(
          simulator, "backbone",
          net::EthernetConfig{.link_bps = 1'000'000'000});
      body_can = std::make_unique<net::CanBus>(simulator, "body_can",
                                               net::CanBusConfig{});
      net::NodeId next_node = 1;
      for (const auto& ecu_def : parsed.model.ecus()) {
        os::EcuConfig config;
        config.name = ecu_def.name;
        config.cpu.mips = ecu_def.mips;
        config.memory_bytes = ecu_def.memory_bytes;
        ecus.push_back(std::make_unique<os::Ecu>(simulator, config,
                                                 backbone.get(), next_node++));
      }
      platform::PlatformConfig platform_config;
      platform_config.enforce_verification = false;  // verified above
      dp = std::make_unique<platform::DynamicPlatform>(
          simulator, parsed.model, parsed.deployment, platform_config);
      for (auto& ecu : ecus) dp->add_node(*ecu);
      for (const AppSpec& spec : app_specs()) {
        const std::uint64_t app_seed = derive(seed_, name_hash(spec.name));
        VehicleState* shared = &state;
        const AppSpec* app = &spec;
        dp->register_app(spec.name, [app, shared, app_seed] {
          return std::make_unique<BenchApp>(*app, shared, app_seed);
        });
      }
      for (const AppSpec& spec : app_specs()) {
        for (const auto& [name, kind] : spec.receives) {
          ++state.flows[name].subscribers;
          state.flows[name].kind = kind;
        }
        for (const Send& send : spec.sends) {
          if (send.kind == Kind::kCall) state.flows[send.interface].kind = Kind::kCall;
        }
      }
      std::string reason;
      if (!dp->install_all(&reason)) {
        unit.errors.push_back("install failed: " + reason);
        return unit;
      }
      build_body_domain(simulator, *body_can, *backbone,
                        dp->node("Gateway")->ecu(), legacy,
                        gateway, state);
    }

    // Stream losses counted before the window (sequence gaps from before a
    // subscription formed) are excluded from the audit.
    simulator.schedule_at(kWindowStart, [&] { snapshot_losses(*dp, state, true); });

    Clock::time_point first_event;
    simulator.schedule_at(0, [&first_event] { first_event = Clock::now(); });
    {
      spans::Scope span(spans::kSimRun);
      simulator.run_until(kUnitEnd);
    }
    const Clock::time_point finish = Clock::now();

    spans::Scope check(spans::kCheck);
    snapshot_losses(*dp, state, false);
    unit.setup_s = seconds_between(start, first_event);
    unit.run_s = seconds_between(first_event, finish);
    unit.sim_s = sim::to_s(kUnitEnd);
    unit.items = unit.sim_s;

    LayerCounts layers =
        collect_layers(*dp, {backbone.get()}, {body_can.get()});
    audit(state, layers, unit);

    Fnv delivery;
    for (const auto& [name, flow] : state.flows) {
      delivery.mix(name_hash(name));
      delivery.mix(flow.sent);
      delivery.mix(flow.delivered);
      delivery.mix(flow.failed);
      delivery.mix(flow.losses_at_end - flow.losses_at_window);
    }
    delivery.mix(state.stats.fingerprint());
    for (const double us : state.event_latency_us) delivery.mix_double(us);
    Fnv platform;
    platform.mix(layers.fingerprint());
    platform.mix(simulator.events_executed());
    platform.mix(state.raw_frames);
    platform.mix(state.raw_fold);
    unit.fingerprints = {{"vehicle_delivery", delivery.value()},
                         {"vehicle_platform", platform.value()}};
    unit.sim_metrics = {
        {"event_latency_p50_us", percentile(state.event_latency_us, 0.50),
         "sim_us"},
        {"event_latency_p99_us", percentile(state.event_latency_us, 0.99),
         "sim_us"},
        {"event_latency_samples",
         static_cast<double>(state.event_latency_us.size()), "count"},
        {"da_deadline_misses", static_cast<double>(layers.da_deadline_misses),
         "count"},
    };
    unit.counters = layers.metrics();
    unit.counters.push_back({"sim.events",
                             static_cast<double>(simulator.events_executed()),
                             "count"});
    unit.counters.push_back({"app.activations",
                             static_cast<double>(state.stats.activations),
                             "count"});
    unit.counters.push_back({"middleware.send_calls",
                             static_cast<double>(state.stats.send_calls),
                             "count"});
    unit.counters.push_back({"middleware.delivered",
                             static_cast<double>(state.stats.delivered),
                             "count"});
    std::uint64_t losses = 0;
    for (const auto& [name, flow] : state.flows) {
      losses += flow.losses_at_end;
    }
    unit.counters.push_back(
        {"middleware.stream_losses", static_cast<double>(losses), "count"});
    return unit;
  }

  std::vector<Metric> report_metrics(
      const std::vector<UnitResult>&) const override {
    return {};
  }

 private:
  /// Legacy body domain: three CAN ECUs broadcasting raw signals; the
  /// Router forwards the signal id range onto the backbone to the Gateway
  /// ECU's raw CAN port, whose CPU hands the values to the adapter apps.
  void build_body_domain(sim::Simulator& simulator, net::CanBus& can,
                         net::EthernetSwitch& backbone, os::Ecu& gateway_ecu,
                         std::vector<std::unique_ptr<os::Ecu>>& legacy,
                         std::unique_ptr<net::Router>& gateway,
                         VehicleState& state) {
    constexpr net::NodeId kRouterCan = 10;
    constexpr net::NodeId kRouterEth = 100;
    constexpr net::NodeId kRawPort = 101;
    gateway = std::make_unique<net::Router>(
        can, kRouterCan, backbone, kRouterEth,
        [&gateway_ecu](std::function<void()> work) {
          gateway_ecu.processor().submit("can_fwd", 1'500, 4,
                                         os::TaskClass::kNonDeterministic,
                                         std::move(work));
        });
    gateway->route_a_to_b({.flow_min = 0x100,
                           .flow_max = 0x1FF,
                           .destination = kRawPort,
                           .remap_priority = net::Priority{2}});
    VehicleState* shared = &state;
    backbone.attach(kRawPort, [&gateway_ecu, shared](const net::Frame& frame) {
      gateway_ecu.processor().submit(
          "can_rx", 2'000, 5, os::TaskClass::kNonDeterministic,
          [shared, frame] {
            ++shared->raw_frames;
            const std::vector<std::uint8_t> bytes = frame.payload.to_vector();
            if (bytes.size() < 2) return;
            if (frame.flow_id < 0x180) {
              shared->wheel_raw =
                  static_cast<std::uint16_t>(bytes[0] | (bytes[1] << 8));
            } else {
              shared->body_raw = bytes[0];
            }
          });
    });

    struct Sender {
      const char* name;
      std::uint32_t first_flow;
      std::uint32_t flows;
      sim::Duration period;
      net::Priority priority;
    };
    const Sender senders[] = {
        {"WheelSensors", 0x120, 4, 10 * sim::kMillisecond, 1},
        {"DoorModule", 0x180, 1, 50 * sim::kMillisecond, 5},
        {"LightModule", 0x181, 2, 50 * sim::kMillisecond, 5},
    };
    net::NodeId node = 21;
    for (const Sender& sender : senders) {
      os::EcuConfig config;
      config.name = sender.name;
      config.cpu.mips = 50;
      legacy.push_back(
          std::make_unique<os::Ecu>(simulator, config, &can, node++));
      os::Ecu* ecu = legacy.back().get();
      auto rng = std::make_shared<sim::Random>(
          derive(seed_, name_hash(sender.name)));
      simulator.schedule_every(
          sim::kMillisecond + static_cast<sim::Time>(node) * 100'000,
          sender.period, [ecu, sender, rng] {
            for (std::uint32_t f = 0; f < sender.flows; ++f) {
              net::Frame frame;
              frame.flow_id = sender.first_flow + f;
              frame.priority = sender.priority;
              const std::uint64_t value = rng->next_u64();
              std::vector<std::uint8_t> bytes(8);
              for (std::size_t b = 0; b < 8; ++b) {
                bytes[b] = static_cast<std::uint8_t>(value >> (8 * b));
              }
              frame.payload = std::move(bytes);
              ecu->send(std::move(frame));
            }
          });
    }
    // Body chatter outside the forwarded range: filtered at the gateway.
    os::Ecu* chatter = legacy.front().get();
    simulator.schedule_every(500 * sim::kMicrosecond, 5 * sim::kMillisecond,
                             [chatter] {
                               net::Frame frame;
                               frame.flow_id = 0x300;
                               frame.priority = 6;
                               frame.payload = std::vector<std::uint8_t>(8, 0);
                               chatter->send(std::move(frame));
                             });
  }

  static void snapshot_losses(platform::DynamicPlatform& dp,
                              VehicleState& state, bool at_window) {
    for (auto& [name, flow] : state.flows) {
      if (flow.kind != Kind::kStream) continue;
      std::uint64_t losses = 0;
      const middleware::ServiceId id = dp.service_id(name);
      for (const std::string& node : dp.node_names()) {
        losses += dp.node(node)->comm().stream_losses(id, 1);
      }
      (at_window ? flow.losses_at_window : flow.losses_at_end) = losses;
    }
  }

  /// Conservation per flow plus failure accounting.
  static void audit(const VehicleState& state, const LayerCounts& layers,
                    UnitResult& unit) {
    std::uint64_t expected = 0;
    std::uint64_t missing = 0;
    for (const auto& [name, flow] : state.flows) {
      if (flow.kind == Kind::kCall) {
        expected += flow.sent;
        if (flow.delivered + flow.failed != flow.sent) {
          unit.errors.push_back("RPC " + name + ": " +
                                std::to_string(flow.sent) + " calls, " +
                                std::to_string(flow.delivered) + " ok + " +
                                std::to_string(flow.failed) + " failed");
        }
        missing += flow.failed;
        continue;
      }
      const std::uint64_t want = flow.sent * flow.subscribers;
      const std::uint64_t losses = flow.losses_at_end - flow.losses_at_window;
      expected += want;
      if (flow.delivered + losses != want) {
        unit.errors.push_back(
            name + ": sent " + std::to_string(flow.sent) + " x " +
            std::to_string(flow.subscribers) + " subscribers != delivered " +
            std::to_string(flow.delivered) + " + losses " +
            std::to_string(losses));
      }
      missing += want > flow.delivered ? want - flow.delivered : 0;
    }
    // Failure accounting: expected deliveries and calls vs those that did
    // not arrive, plus DA deadline misses.
    unit.ops = expected;
    unit.ops_failed = missing + layers.da_deadline_misses;
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_vehicle_steady(std::uint64_t seed) {
  return std::make_unique<VehicleSteady>(seed);
}

}  // namespace perfbench
