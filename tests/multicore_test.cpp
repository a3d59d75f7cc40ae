// Tests for partitioned multicore ECUs: core placement at install time,
// per-core TT schedules, verifier capacity rules and model support.
#include <gtest/gtest.h>

#include <memory>

#include "dse/schedulability.hpp"
#include "model/parser.hpp"
#include "model/verifier.hpp"
#include "platform/vehicle.hpp"

namespace dynaplat {
namespace {

TEST(MulticoreEcu, CoresAreIndependentProcessors) {
  sim::Simulator simulator;
  os::EcuConfig config{.name = "central", .cpu = {.mips = 1000}, .cores = 3};
  os::Ecu ecu(simulator, config, nullptr, 0);
  EXPECT_EQ(ecu.core_count(), 3u);
  EXPECT_EQ(ecu.processor(0).name(), "central/core0");
  EXPECT_EQ(ecu.processor(2).name(), "central/core2");

  // A hog on core 0 does not delay a task on core 1.
  os::TaskConfig hog;
  hog.name = "hog";
  hog.period = 10 * sim::kMillisecond;
  hog.instructions = 9'000'000;  // 9 ms per 10 ms on core 0
  hog.priority = 0;
  ecu.processor(0).add_task(hog);
  os::TaskConfig light;
  light.name = "light";
  light.task_class = os::TaskClass::kDeterministic;
  light.period = 10 * sim::kMillisecond;
  light.instructions = 100'000;
  light.priority = 5;
  const os::TaskId id = ecu.processor(1).add_task(light);
  ecu.processor(0).start();
  ecu.processor(1).start();
  simulator.run_until(sim::seconds(1));
  EXPECT_EQ(ecu.processor(1).stats(id).deadline_misses, 0u);
  EXPECT_NEAR(ecu.processor(1).stats(id).response_time.mean(), 100'000.0,
              5'000.0);
}

TEST(MulticoreEcu, FailHaltsAllCoresRecoverRestoresAll) {
  sim::Simulator simulator;
  os::EcuConfig config{.name = "c", .cpu = {.mips = 1000}, .cores = 2};
  os::Ecu ecu(simulator, config, nullptr, 0);
  ecu.processor(0).start();
  ecu.processor(1).start();
  ecu.fail();
  EXPECT_TRUE(ecu.processor(0).halted());
  EXPECT_TRUE(ecu.processor(1).halted());
  ecu.recover();
  EXPECT_FALSE(ecu.processor(0).halted());
  EXPECT_EQ(ecu.core_count(), 2u);
}

TEST(Parser, CoresAttributeRoundTrips) {
  auto sys = model::parse_system("ecu Central mips=4000 cores=4 asil=D\n");
  ASSERT_NE(sys.model.ecu("Central"), nullptr);
  EXPECT_EQ(sys.model.ecu("Central")->cores, 4);
  const auto reparsed =
      model::parse_system(model::to_dsl(sys.model, sys.deployment));
  EXPECT_EQ(reparsed.model.ecu("Central")->cores, 4);
}

TEST(Verifier, MulticoreCapacityAccepted) {
  const char* base =
      "app A class=deterministic asil=B memory=4M\n"
      "  task t period=10ms wcet=8M priority=1\n"  // 0.8 util at 10k MIPS?
      "app B class=deterministic asil=B memory=4M\n"
      "  task t period=10ms wcet=8M priority=2\n"
      "deploy A -> E\ndeploy B -> E\n";
  model::Verifier verifier;
  verifier.set_schedulability_hook(dse::make_verifier_hook());
  {
    // 1 core at 1000 MIPS: each task needs 8 ms per 10 ms -> 1.6 total.
    auto sys = model::parse_system(
        std::string("ecu E mips=1000 cores=1 memory=64M asil=D\n") + base);
    EXPECT_TRUE(model::Verifier::has_errors(
        verifier.verify(sys.model, sys.deployment)));
  }
  {
    auto sys = model::parse_system(
        std::string("ecu E mips=1000 cores=2 memory=64M asil=D\n") + base);
    const auto violations = verifier.verify(sys.model, sys.deployment);
    EXPECT_FALSE(model::Verifier::has_errors(violations));
  }
}

class StubApp final : public platform::Application {};

TEST(MulticorePlatform, InstallSpreadsAppsAcrossCores) {
  sim::Simulator simulator;
  platform::Vehicle vehicle(
      simulator,
      model::parse_system(
          "network Net kind=ethernet bitrate=100M\n"
          "ecu Central mips=1000 cores=2 memory=128M asil=D network=Net\n"
          "app A class=deterministic asil=B memory=4M\n"
          "  task t period=10ms wcet=7M priority=1\n"  // 0.7 util each
          "app B class=deterministic asil=B memory=4M\n"
          "  task t period=10ms wcet=7M priority=1\n"
          "deploy A -> Central\ndeploy B -> Central\n"));
  platform::DynamicPlatform& dp = vehicle.platform();
  os::Ecu& ecu = vehicle.ecu("Central");
  dp.register_app("A", [] { return std::make_unique<StubApp>(); });
  dp.register_app("B", [] { return std::make_unique<StubApp>(); });
  std::string reason;
  ASSERT_TRUE(dp.install_all(&reason)) << reason;

  const auto* a = dp.node("Central")->instance("A");
  const auto* b = dp.node("Central")->instance("B");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->core, b->core) << "0.7 + 0.7 cannot share one core";

  simulator.run_until(sim::seconds(2));
  for (std::size_t core = 0; core < ecu.core_count(); ++core) {
    for (os::TaskId id : ecu.processor(core).task_ids()) {
      if (ecu.processor(core).config(id).task_class ==
          os::TaskClass::kDeterministic) {
        EXPECT_EQ(ecu.processor(core).stats(id).deadline_misses, 0u);
      }
    }
  }
}

TEST(MulticorePlatform, SingleCoreRejectsWhatDualCoreAccepts) {
  const char* model_text =
      "network Net kind=ethernet bitrate=100M\n"
      "ecu Central mips=1000 cores=1 memory=128M asil=D network=Net\n"
      "app A class=deterministic asil=B memory=4M\n"
      "  task t period=10ms wcet=7M priority=1\n"
      "deploy A -> Central\n";
  sim::Simulator simulator;
  platform::Vehicle vehicle(simulator, model::parse_system(model_text));
  platform::DynamicPlatform& dp = vehicle.platform();
  platform::PlatformNode& node = *dp.node("Central");
  dp.register_app("A", [] { return std::make_unique<StubApp>(); });
  ASSERT_TRUE(dp.install_all());
  // Second 0.7-utilization app: no single core can take it.
  model::AppDef second = *dp.system_model().app("A");
  second.name = "B";
  std::string reason;
  EXPECT_FALSE(node.install(
      second, [] { return std::make_unique<StubApp>(); }, &reason));
}

}  // namespace
}  // namespace dynaplat
