// Causal end-to-end chain tracing through the transport (PR 7 tentpole):
// the TraceContext must survive fragmentation, reliable-mode retransmission
// and duplicate suppression with every hop counted exactly once, and the
// Chrome export must render the chain as one causally-linked flow across
// ECU processes. The CoverageSweepMerge suite proves the state-coverage
// aggregate of a 32-seed scenario sweep is bit-identical at any thread
// count (the TSan CI job runs it to prove shard isolation).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.hpp"
#include "middleware/transport.hpp"
#include "model/parser.hpp"
#include "obs/context.hpp"
#include "obs/coverage.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "os/ecu.hpp"
#include "platform/degradation.hpp"
#include "platform/recovery.hpp"
#include "platform/vehicle.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"

namespace dynaplat {
namespace {

// --- Traced loopback fixture -------------------------------------------------

// Two reliable transports on one simulator, each with its own ChainTracer
// lane ("EcuA/chain" / "EcuB/chain") writing into one shared trace. Frames
// are numbered per direction; tests drop selected transmissions to force
// retransmission and duplicate suppression.
struct TracedLoopback {
  explicit TracedLoopback(middleware::TransportConfig config)
      : tracer_a(trace.buffer(), trace.metrics(), "EcuA/chain", 1),
        tracer_b(trace.buffer(), trace.metrics(), "EcuB/chain", 2) {
    a = std::make_unique<middleware::Transport>(
        [this](net::Frame frame) {
          frame.src = 1;
          if (drop_a.count(++a_frames) != 0) return;
          sim.schedule_in(10 * sim::kMicrosecond,
                          [this, frame] { b->on_frame(frame); });
        },
        64, sim, config);
    b = std::make_unique<middleware::Transport>(
        [this](net::Frame frame) {
          frame.src = 2;
          if (drop_b.count(++b_frames) != 0) return;
          sim.schedule_in(10 * sim::kMicrosecond,
                          [this, frame] { a->on_frame(frame); });
        },
        64, sim, config);
    a->set_tracer(&tracer_a);
    b->set_tracer(&tracer_b);
    a->set_coverage(&trace.coverage());
    b->set_coverage(&trace.coverage());
  }

  sim::Simulator sim;
  sim::Trace trace;
  obs::ChainTracer tracer_a;
  obs::ChainTracer tracer_b;
  std::set<int> drop_a;  // 1-based frame numbers a->b to drop
  std::set<int> drop_b;  // 1-based frame numbers b->a to drop
  int a_frames = 0;
  int b_frames = 0;
  std::unique_ptr<middleware::Transport> a;
  std::unique_ptr<middleware::Transport> b;
};

TEST(ChainTrace, ContextSurvivesFragmentationRetransmitAndDedup) {
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 5 * sim::kMillisecond;
  TracedLoopback wire(config);
  // 180-byte body + 29-byte context + 4-byte CRC over 58-byte fragment
  // payloads = 4 fragments. Drop the first data fragment (hole -> ack
  // timeout -> retransmission) and the first ACK (sender retries a message
  // the receiver already delivered -> duplicate suppressed).
  wire.drop_a = {1};
  wire.drop_b = {1};

  std::vector<std::uint8_t> body(180);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i * 7);
  }

  std::size_t delivered = 0;
  std::vector<std::uint8_t> got;
  obs::TraceContext got_ctx;
  wire.b->set_handler([&](net::NodeId src, net::Payload message,
                          const obs::TraceContext& ctx) {
    EXPECT_EQ(src, 1u);
    ++delivered;
    got = message.to_vector();
    got_ctx = ctx;
    if (ctx.sampled()) {
      wire.tracer_b.on_dispatch(ctx, wire.sim.now(), wire.sim.now(), true);
    }
  });

  obs::TraceContext sent_ctx;
  wire.sim.schedule_at(1 * sim::kMillisecond, [&] {
    sent_ctx = wire.tracer_a.start(wire.sim.now());
    wire.a->send(2, 3, 7, std::vector<std::uint8_t>(body), sent_ctx);
  });
  wire.sim.run_until(200 * sim::kMillisecond);

  // The payload round-tripped exactly once, bytes intact, context intact.
  ASSERT_EQ(delivered, 1u);
  EXPECT_EQ(got, body);
  EXPECT_TRUE(got_ctx.sampled());
  EXPECT_EQ(got_ctx.trace_id, sent_ctx.trace_id);
  EXPECT_EQ(got_ctx.origin_ns, 1'000'000u);
  // The retransmitted wire bytes are the pinned originals, so the context's
  // send stamp is the *first* transmission's.
  EXPECT_EQ(got_ctx.sent_ns, 1'000'000u);
  EXPECT_GE(wire.a->retries(), 2u);
  EXPECT_EQ(wire.b->duplicates_suppressed(), 1u);
  EXPECT_EQ(wire.a->pending_reliable(), 0u);

  // Every hop histogram counted exactly once despite retransmit + dup.
  auto& metrics = wire.trace.metrics();
  EXPECT_EQ(metrics.histogram("chain.serialize_ns").count(), 1u);
  EXPECT_EQ(metrics.histogram("chain.bus_ns").count(), 1u);
  EXPECT_EQ(metrics.histogram("chain.reassembly_ns").count(), 1u);
  EXPECT_EQ(metrics.histogram("chain.dispatch_ns").count(), 1u);
  EXPECT_EQ(metrics.histogram("chain.end_to_end_ns").count(), 1u);

  // Transport edge paths landed in the coverage map.
  auto& coverage = wire.trace.coverage();
  EXPECT_GE(coverage.count("transport.retransmit"), 2u);
  EXPECT_EQ(coverage.count("transport.dup_drop"), 1u);
  EXPECT_GE(coverage.count("transport.fragment_coalesce"), 1u);
}

TEST(ChainTrace, ChromeExportShowsCrossEcuCausalFlow) {
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 5 * sim::kMillisecond;
  TracedLoopback wire(config);

  std::size_t delivered = 0;
  wire.b->set_handler([&](net::NodeId, net::Payload,
                          const obs::TraceContext& ctx) {
    ++delivered;
    if (ctx.sampled()) {
      const sim::Time at = wire.sim.now();
      wire.sim.schedule_in(20 * sim::kMicrosecond, [&wire, ctx, at] {
        wire.tracer_b.on_dispatch(ctx, at, wire.sim.now(), true);
      });
    }
  });

  constexpr int kMessages = 3;
  for (int i = 0; i < kMessages; ++i) {
    wire.sim.schedule_at((1 + i) * sim::kMillisecond, [&wire, i] {
      std::vector<std::uint8_t> body(120, static_cast<std::uint8_t>(i));
      const obs::TraceContext ctx = wire.tracer_a.start(wire.sim.now());
      wire.a->send(2, 3, 7, std::move(body), ctx);
    });
  }
  wire.sim.run_until(100 * sim::kMillisecond);
  ASSERT_EQ(delivered, static_cast<std::size_t>(kMessages));

  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(obs::to_chrome_trace_json(wire.trace.buffer()),
                               &doc, &error))
      << error;
  const obs::json::Value& events = doc.at("traceEvents");

  std::set<double> start_ids, step_ids, end_ids;
  std::set<double> start_pids, end_pids;
  std::set<std::string> span_names;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::json::Value& event = events[i];
    const std::string& ph = event.at("ph").string;
    if (ph == "s") {
      start_ids.insert(event.at("id").number);
      start_pids.insert(event.at("pid").number);
    } else if (ph == "t") {
      step_ids.insert(event.at("id").number);
    } else if (ph == "f") {
      end_ids.insert(event.at("id").number);
      end_pids.insert(event.at("pid").number);
      // The terminal flow event binds to its enclosing (dispatch) slice.
      EXPECT_EQ(event.at("bp").string, "e");
    } else if (ph == "X") {
      span_names.insert(event.at("name").string);
    }
  }
  // One flow per message, causally linked: every step/end id has its start,
  // and the flow crosses from EcuA's process to EcuB's.
  EXPECT_EQ(start_ids.size(), static_cast<std::size_t>(kMessages));
  EXPECT_EQ(step_ids, start_ids);
  EXPECT_EQ(end_ids, start_ids);
  ASSERT_EQ(start_pids.size(), 1u);
  ASSERT_EQ(end_pids.size(), 1u);
  EXPECT_NE(*start_pids.begin(), *end_pids.begin());
  // Per-hop attribution spans are present on both sides.
  EXPECT_TRUE(span_names.count("chain:serialize"));
  EXPECT_TRUE(span_names.count("chain:bus"));
  EXPECT_TRUE(span_names.count("chain:reassembly"));
  EXPECT_TRUE(span_names.count("chain:dispatch"));
}

// --- Coverage sweep merge ----------------------------------------------------

class StatefulApp final : public platform::Application {
 public:
  void on_task(const std::string&) override { ++counter_; }
  std::vector<std::uint8_t> serialize_state() override {
    return {static_cast<std::uint8_t>(counter_)};
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    if (!state.empty()) counter_ = state[0];
  }

 private:
  std::uint32_t counter_ = 0;
};

const char* kSweepVehicle = R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
ecu C mips=1000 memory=64M asil=D network=Net
ecu D mips=1000 memory=64M asil=D network=Net
app Brake class=deterministic asil=D memory=4M
  task ctl period=10ms wcet=200K priority=1
app Maps class=nondeterministic asil=QM memory=4M
  task tiles period=50ms wcet=250K priority=9
deploy Brake -> A
deploy Maps -> A
)";

// One scenario: a 4-ECU vehicle loses ECU A at an rng-drawn time (recovery
// plan -> detect/remap/apply/soak/commit), a heartbeat loss drives a
// degradation edge, and a lossy reliable loopback plus a stranded partial
// exercise every transport edge path. Returns the scenario's CoverageMap.
obs::CoverageMap coverage_scenario(sim::ScenarioRun& run) {
  sim::Simulator& sim = run.simulator;
  sim::Trace trace;
  platform::Vehicle vehicle(sim, model::parse_system(kSweepVehicle),
                            {.trace = &trace});
  platform::DynamicPlatform& dp = vehicle.platform();
  for (const auto& app : dp.system_model().apps()) {
    dp.register_app(app.name, [] { return std::make_unique<StatefulApp>(); });
  }
  if (!dp.install_all()) return {};

  platform::RecoveryConfig rconfig;
  rconfig.dse_iterations = 100;
  platform::RecoveryOrchestrator orchestrator(dp, rconfig);
  orchestrator.engage();
  platform::DegradationManager degradation(dp);
  degradation.engage();
  orchestrator.set_degradation(&degradation);

  os::Ecu* ecu_a = &vehicle.ecu("A");
  const sim::Time crash_at =
      (300 + run.rng.next_below(100)) * sim::kMillisecond;
  sim.schedule_at(crash_at, [ecu_a] { ecu_a->fail(); });
  sim.schedule_at(crash_at + 10 * sim::kMillisecond,
                  [&degradation] { degradation.report_heartbeat_loss("A"); });

  // Transport edges on the same simulator, recording into the same map:
  // a lossy reliable pair (retransmit + dup-drop + coalesce) ...
  middleware::TransportConfig tconfig;
  tconfig.reliable = true;
  tconfig.ack_timeout = 5 * sim::kMillisecond;
  int tx_frames = 0;
  int rx_frames = 0;
  const int drop_tx = 1 + static_cast<int>(run.rng.next_below(3));
  std::unique_ptr<middleware::Transport> tx;
  std::unique_ptr<middleware::Transport> rx;
  tx = std::make_unique<middleware::Transport>(
      [&](net::Frame frame) {
        frame.src = 101;
        if (++tx_frames == drop_tx) return;
        sim.schedule_in(10 * sim::kMicrosecond,
                        [&rx, frame] { rx->on_frame(frame); });
      },
      64, sim, tconfig);
  rx = std::make_unique<middleware::Transport>(
      [&](net::Frame frame) {
        frame.src = 102;
        if (++rx_frames == 1) return;  // first ACK lost -> duplicate later
        sim.schedule_in(10 * sim::kMicrosecond,
                        [&tx, frame] { tx->on_frame(frame); });
      },
      64, sim, tconfig);
  tx->set_coverage(&trace.coverage());
  rx->set_coverage(&trace.coverage());
  rx->set_handler(
      [](net::NodeId, net::Payload, const obs::TraceContext&) {});
  sim.schedule_at((10 + run.rng.next_below(40)) * sim::kMillisecond, [&] {
    std::vector<std::uint8_t> body(180);
    for (std::size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<std::uint8_t>(run.rng.next_u64());
    }
    tx->send(102, 3, 9, std::move(body));
  });

  // ... and an unreliable pair whose message never completes (TTL evict).
  middleware::TransportConfig uconfig;
  uconfig.reassembly_ttl = 40 * sim::kMillisecond;
  int u_frames = 0;
  std::unique_ptr<middleware::Transport> u;
  std::unique_ptr<middleware::Transport> v;
  u = std::make_unique<middleware::Transport>(
      [&](net::Frame frame) {
        frame.src = 103;
        if (++u_frames > 1) return;  // only the first fragment arrives
        sim.schedule_in(10 * sim::kMicrosecond,
                        [&v, frame] { v->on_frame(frame); });
      },
      64, sim, uconfig);
  v = std::make_unique<middleware::Transport>([](net::Frame) {}, 64, sim,
                                              uconfig);
  v->set_coverage(&trace.coverage());
  sim.schedule_at(20 * sim::kMillisecond, [&] {
    u->send(104, 3, 11, std::vector<std::uint8_t>(180, 0x5A));
  });

  sim.run_until(1200 * sim::kMillisecond);
  return trace.coverage();
}

std::vector<obs::CoverageMap> sweep_shards(std::size_t threads) {
  sim::SweepConfig config;
  config.seed = 2026;
  config.threads = threads;
  sim::ScenarioSweep sweep(config);
  return sweep.run<obs::CoverageMap>(32, coverage_scenario);
}

TEST(CoverageSweepMerge, ThirtyTwoSeedAggregateIsThreadCountInvariant) {
  const obs::CoverageMap serial =
      sim::ScenarioSweep::merge_coverage(sweep_shards(0));
  const obs::CoverageMap parallel =
      sim::ScenarioSweep::merge_coverage(sweep_shards(3));
  // Bit-identical JSON: same keys, same counts, same interning order.
  EXPECT_EQ(serial.snapshot_json(), parallel.snapshot_json());

  // The sweep actually reached the state families the coverage map exists
  // to witness.
  bool has_degradation = false;
  bool has_recovery = false;
  serial.for_each([&](std::string_view name, std::uint64_t count) {
    if (count == 0) return;
    if (name.substr(0, 12) == "degradation.") has_degradation = true;
    if (name.substr(0, 9) == "recovery.") has_recovery = true;
  });
  EXPECT_TRUE(has_degradation);
  EXPECT_TRUE(has_recovery);
  EXPECT_GT(serial.count("recovery.detect"), 0u);
  EXPECT_GT(serial.count("recovery.commit"), 0u);
  EXPECT_GT(serial.count("transport.retransmit"), 0u);
  EXPECT_GT(serial.count("transport.dup_drop"), 0u);
  EXPECT_GT(serial.count("transport.ttl_evict"), 0u);
  EXPECT_GT(serial.count("transport.fragment_coalesce"), 0u);
}

}  // namespace
}  // namespace dynaplat
