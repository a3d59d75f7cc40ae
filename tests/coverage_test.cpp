// Edge-case coverage: corner behaviours of the substrates that the main
// suites don't reach — empty/degenerate inputs, boundary values, and the
// less-travelled error paths.
#include <gtest/gtest.h>

#include "crypto/bignum.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "dse/admission.hpp"
#include "middleware/runtime.hpp"
#include "model/parser.hpp"
#include "net/ethernet.hpp"
#include "net/flexray.hpp"
#include "obs/metrics.hpp"

namespace dynaplat {
namespace {

// --- BigNum degenerates ---------------------------------------------------------

TEST(BigNumEdge, ZeroBehaviour) {
  crypto::BigNum zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
  EXPECT_TRUE((zero + zero).is_zero());
  EXPECT_TRUE((zero * crypto::BigNum(12345)).is_zero());
  EXPECT_TRUE((crypto::BigNum(7) - crypto::BigNum(7)).is_zero());
}

TEST(BigNumEdge, DivisionByZeroThrows) {
  EXPECT_THROW(crypto::BigNum(5) % crypto::BigNum(), std::domain_error);
  EXPECT_THROW(crypto::BigNum(5) / crypto::BigNum(), std::domain_error);
}

TEST(BigNumEdge, ShiftByLimbMultiples) {
  const auto a = crypto::BigNum::from_hex("deadbeef");
  EXPECT_EQ(a.shifted_left(32).to_hex(), "deadbeef00000000");
  EXPECT_EQ(a.shifted_left(64).shifted_right(64).to_hex(), "deadbeef");
  EXPECT_TRUE(a.shifted_right(64).is_zero());
}

TEST(BigNumEdge, SelfSubtraction) {
  const auto a = crypto::BigNum::from_hex("ffffffffffffffffffffffff");
  EXPECT_TRUE((a - a).is_zero());
}

TEST(BigNumEdge, ModPowWithZeroExponentIsOne) {
  EXPECT_TRUE(crypto::BigNum(7).mod_pow(crypto::BigNum(), crypto::BigNum(13)) ==
              crypto::BigNum(1));
}

TEST(BigNumEdge, ComparisonTotalOrder) {
  const auto small = crypto::BigNum::from_hex("ffffffff");
  const auto big = crypto::BigNum::from_hex("100000000");
  EXPECT_TRUE(small < big);
  EXPECT_FALSE(big < small);
  EXPECT_TRUE(small <= small);
  EXPECT_TRUE(big > small);
}

// --- RSA digest API -----------------------------------------------------------------

TEST(RsaEdge, DigestSignVerifyMatchesMessageApi) {
  sim::Random rng(4711);
  const auto kp = crypto::RsaKeyPair::generate(512, rng);
  const std::vector<std::uint8_t> msg{1, 2, 3};
  const auto digest = crypto::Sha256::digest(msg);
  const auto sig1 = crypto::rsa_sign(kp.priv, msg);
  const auto sig2 = crypto::rsa_sign_digest(kp.priv, digest);
  EXPECT_EQ(sig1, sig2);  // deterministic padding: identical signatures
  EXPECT_TRUE(crypto::rsa_verify_digest(kp.pub, digest, sig1));
}

TEST(RsaEdge, WrongLengthSignatureRejectedFast) {
  sim::Random rng(4712);
  const auto kp = crypto::RsaKeyPair::generate(512, rng);
  EXPECT_FALSE(crypto::rsa_verify(kp.pub, {1}, std::vector<std::uint8_t>(3)));
}

// --- Histogram edge cases -------------------------------------------------------------

TEST(StatsEdge, SingleSample) {
  obs::Histogram stats;
  stats.observe(42.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_EQ(stats.min(), 42.0);
  EXPECT_EQ(stats.max(), 42.0);
  EXPECT_EQ(stats.mean(), 42.0);
  // A single-valued set is exact at every rank: the clamp to [min, max].
  EXPECT_EQ(stats.percentile(0), 42.0);
  EXPECT_EQ(stats.percentile(50), 42.0);
  EXPECT_EQ(stats.percentile(100), 42.0);
}

TEST(StatsEdge, NegativeValues) {
  obs::Histogram stats;
  for (double v : {-5.0, -1.0, 3.0}) stats.observe(v);
  EXPECT_EQ(stats.min(), -5.0);
  EXPECT_EQ(stats.max(), 3.0);
  EXPECT_NEAR(stats.mean(), -1.0, 1e-12);
  // Negatives share the underflow bucket, whose estimate is the minimum.
  EXPECT_EQ(stats.count_at(0), 2u);
  EXPECT_EQ(stats.percentile(50), -5.0);
}

// --- DSL parser corner cases -------------------------------------------------------------

TEST(ParserEdge, CommentsAndBlankLines) {
  const auto sys = model::parse_system(
      "# full line comment\n"
      "\n"
      "ecu A mips=100 # trailing comment\n"
      "   \n");
  EXPECT_EQ(sys.model.ecus().size(), 1u);
  EXPECT_EQ(sys.model.ecu("A")->mips, 100u);
}

TEST(ParserEdge, EmptyInputYieldsEmptyModel) {
  const auto sys = model::parse_system("");
  EXPECT_TRUE(sys.model.ecus().empty());
  EXPECT_TRUE(sys.model.apps().empty());
}

TEST(ParserEdge, FractionalDurations) {
  EXPECT_EQ(model::parse_duration("0.5ms"), 500'000);
  EXPECT_EQ(model::parse_duration("2.5us"), 2'500);
}

TEST(ParserEdge, MalformedKeyValueRejected) {
  EXPECT_THROW(model::parse_system("ecu A =broken\n"), model::ParseError);
  // Numbers the model cannot represent: negative, non-finite, past the
  // integer range, or a zero execution rate.
  for (const char* text : {
           "ecu A mips=abc\n",
           "ecu A mips=0\n",
           "ecu A mips=0.0001\n",
           "ecu A mips=-5\n",
           "ecu A memory=1e30M\n",
           "network N bitrate=inf\n",
           "interface I period=-10ms\n",
           "interface I max_latency=nan\n",
           "app P\n  task t period=1e300s\n",
           "app P\n  task t period=10ms wcet=-100K\n",
           "app P\n  task t deadline=1e10s\n",
       }) {
    try {
      model::parse_system(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const model::ParseError& e) {
      // The error names the line that holds the literal.
      const bool task = std::string(text).find("task") != std::string::npos;
      EXPECT_EQ(e.line(), task ? 2u : 1u) << text << " -> " << e.what();
    }
  }
  EXPECT_THROW(model::parse_duration("-1us"), std::out_of_range);
  EXPECT_EQ(model::parse_duration("0"), 0);
}

// --- Schedulability degenerates -------------------------------------------------------------

TEST(SchedulabilityEdge, EmptyTaskSetIsSchedulable) {
  EXPECT_TRUE(dse::admit({}, {}).admitted);
  const auto table = dse::synthesize_tt_table({});
  ASSERT_TRUE(table.has_value());
  EXPECT_TRUE(table->windows.empty());
}

TEST(SchedulabilityEdge, SingleTaskFullUtilization) {
  dse::AnalysisTask task;
  task.name = "t";
  task.period = 10 * sim::kMillisecond;
  task.deadline = task.period;
  task.wcet = task.period;  // exactly 100%
  task.deterministic = true;
  EXPECT_TRUE(dse::response_time_analysis({task}).has_value());
  EXPECT_TRUE(dse::synthesize_tt_table({task}).has_value());
  task.wcet = task.period + 1;
  EXPECT_FALSE(dse::response_time_analysis({task}).has_value());
}

// --- FlexRay edge: empty cycles stop rescheduling ----------------------------------------------

TEST(FlexRayEdge, IdleBusSchedulesNoCycles) {
  sim::Simulator simulator;
  net::FlexRayBus bus(simulator, "fr", {});
  bus.attach(1, [](const net::Frame&) {});
  simulator.run_until(sim::seconds(1));
  EXPECT_EQ(bus.cycles_run(), 0u);
  EXPECT_EQ(simulator.events_executed(), 0u);
}

TEST(FlexRayEdge, ReassigningSlotReplacesOwner) {
  sim::Simulator simulator;
  net::FlexRayBus bus(simulator, "fr", {});
  bus.assign_static_slot(0, 10);
  bus.assign_static_slot(0, 20);  // replaces flow 10
  int rx = 0;
  bus.attach(1, [&](const net::Frame& f) {
    EXPECT_EQ(f.flow_id, 20u);
    ++rx;
  });
  bus.attach(2, [](const net::Frame&) {});
  net::Frame frame;
  frame.flow_id = 20;
  frame.src = 2;
  frame.payload.assign(8, 0);
  bus.send(std::move(frame));
  simulator.run_until(sim::seconds(1));
  EXPECT_EQ(rx, 1);
}

// --- Middleware: re-offer after stop, self-subscription --------------------------------------------

struct MiniNet {
  MiniNet() : backbone(simulator, "eth", net::EthernetConfig{}) {
    for (int i = 0; i < 2; ++i) {
      os::EcuConfig config;
      config.name = "e" + std::to_string(i);
      config.cpu.mips = 1000;
      ecus.push_back(std::make_unique<os::Ecu>(
          simulator, config, &backbone, static_cast<net::NodeId>(i + 1)));
      ecus.back()->processor().start();
      runtimes.push_back(
          std::make_unique<middleware::ServiceRuntime>(*ecus.back()));
    }
  }
  sim::Simulator simulator;
  net::EthernetSwitch backbone;
  std::vector<std::unique_ptr<os::Ecu>> ecus;
  std::vector<std::unique_ptr<middleware::ServiceRuntime>> runtimes;
};

TEST(MiddlewareEdge, LocalSelfSubscriptionDelivers) {
  MiniNet net;
  net.runtimes[0]->offer(9);
  int received = 0;
  net.runtimes[0]->subscribe(9, 1,
                             [&](std::vector<std::uint8_t>, net::NodeId) {
                               ++received;
                             });
  net.simulator.run_until(10 * sim::kMillisecond);
  net.runtimes[0]->publish(9, 1, {1});
  net.simulator.run_until(20 * sim::kMillisecond);
  EXPECT_EQ(received, 1);
}

TEST(MiddlewareEdge, StopOfferPreventsLocalCalls) {
  MiniNet net;
  net.runtimes[0]->offer(9);
  net.runtimes[0]->provide_method(9, 1, [](const std::vector<std::uint8_t>&) {
    return std::vector<std::uint8_t>{1};
  });
  net.runtimes[0]->stop_offer(9);
  EXPECT_FALSE(net.runtimes[0]->provider_of(9).has_value());
}

TEST(MiddlewareEdge, ZeroLengthEventDelivers) {
  MiniNet net;
  net.runtimes[0]->offer(9);
  bool got = false;
  std::size_t size = 99;
  net.runtimes[1]->subscribe(9, 1,
                             [&](std::vector<std::uint8_t> data, net::NodeId) {
                               got = true;
                               size = data.size();
                             });
  net.simulator.run_until(10 * sim::kMillisecond);
  net.runtimes[0]->publish(9, 1, {});
  net.simulator.run_until(50 * sim::kMillisecond);
  EXPECT_TRUE(got);
  EXPECT_EQ(size, 0u);
}

}  // namespace
}  // namespace dynaplat

// --- Codegen (Sec. 2.2 "generate code stubs, configurations") -----------------

#include "model/codegen.hpp"
#include "os/resource.hpp"

namespace dynaplat {
namespace {

const char* kCodegenModel =
    "interface WheelSpeed paradigm=event payload=8 period=10ms version=2\n"
    "interface BrakeCmd paradigm=message payload=16\n"
    "app BrakeController class=deterministic asil=D\n"
    "  task control period=10ms wcet=200K priority=1\n"
    "  provides BrakeCmd\n"
    "  consumes WheelSpeed@2\n";

TEST(Codegen, AppSkeletonContainsTasksAndWiring) {
  const auto sys = model::parse_system(kCodegenModel);
  const auto* app = sys.model.app("BrakeController");
  ASSERT_NE(app, nullptr);
  const std::string code = model::generate_app_skeleton(sys.model, *app);
  EXPECT_NE(code.find("class BrakeControllerApp"), std::string::npos);
  EXPECT_NE(code.find("if (task == \"control\")"), std::string::npos);
  EXPECT_NE(code.find("service_id(\"WheelSpeed\")"), std::string::npos);
  EXPECT_NE(code.find("requires version >= 2"), std::string::npos);
  EXPECT_NE(code.find("provides 'BrakeCmd'"), std::string::npos);
  EXPECT_NE(code.find("void control()"), std::string::npos);
}

TEST(Codegen, MiddlewareConfigMatchesPlatformServiceIds) {
  const auto sys = model::parse_system(kCodegenModel);
  const std::string config = model::generate_middleware_config(sys.model);
  // Service ids in model order, starting at 1 -- the DynamicPlatform rule.
  EXPECT_NE(config.find("WheelSpeed\t1\tevent\t2\t8"), std::string::npos);
  EXPECT_NE(config.find("BrakeCmd\t2\tmessage\t1\t16\tBrakeController"),
            std::string::npos);
}

TEST(Codegen, GenerateAllCoversEveryApp) {
  const auto sys = model::parse_system(kCodegenModel);
  const std::string all = model::generate_all(sys.model);
  EXPECT_NE(all.find("BrakeControllerApp"), std::string::npos);
  EXPECT_NE(all.find("middleware configuration"), std::string::npos);
}

// --- ResourceArbiter (Sec. 3.1 hardware access) -----------------------------------

TEST(ResourceArbiter, ServesByPriorityNonPreemptively) {
  sim::Simulator simulator;
  os::ResourceArbiter hsm(simulator, "hsm");
  std::vector<int> order;
  // Occupy the resource, then queue low before high priority.
  hsm.request(5, 10 * sim::kMillisecond, [&] { order.push_back(0); });
  hsm.request(7, 10 * sim::kMillisecond, [&] { order.push_back(7); });
  hsm.request(1, 10 * sim::kMillisecond, [&] { order.push_back(1); });
  simulator.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);  // in-flight finishes (non-preemptive)
  EXPECT_EQ(order[1], 1);  // urgent overtakes
  EXPECT_EQ(order[2], 7);
  EXPECT_EQ(hsm.served(), 3u);
}

TEST(ResourceArbiter, UrgentWaitBoundedByOneServiceTime) {
  sim::Simulator simulator;
  os::ResourceArbiter flash(simulator, "flash");
  // Sustained low-priority traffic.
  simulator.schedule_every(1, 2 * sim::kMillisecond, [&] {
    flash.request(7, 3 * sim::kMillisecond);
  });
  // Periodic urgent requests.
  simulator.schedule_every(5 * sim::kMillisecond, 20 * sim::kMillisecond,
                           [&] { flash.request(0, sim::kMillisecond); });
  simulator.run_until(sim::seconds(2));
  // Urgent waits at most one in-flight low-priority operation (3 ms).
  EXPECT_LE(flash.wait_stats(0).max(), 3.1e6);
  EXPECT_GT(flash.wait_stats(7).max(), 3.1e6);  // bulk queues behind itself
}

TEST(ResourceArbiter, FifoAblationStarvesUrgentRequests) {
  auto urgent_max_wait = [](bool fifo_only) {
    sim::Simulator simulator;
    os::ResourceArbiter arbiter(simulator, "dev", fifo_only);
    simulator.schedule_every(1, sim::kMillisecond, [&] {
      arbiter.request(7, 2 * sim::kMillisecond);  // 2x overload
    });
    simulator.schedule_every(5 * sim::kMillisecond, 50 * sim::kMillisecond,
                             [&] { arbiter.request(0, sim::kMillisecond); });
    simulator.run_until(sim::seconds(1));
    return arbiter.wait_stats(0).max();
  };
  // Under overload, FIFO queues grow without bound and urgent requests
  // drown; the priority arbiter keeps them at one-service-time waits.
  EXPECT_GT(urgent_max_wait(true), 50.0 * urgent_max_wait(false));
}

}  // namespace
}  // namespace dynaplat
