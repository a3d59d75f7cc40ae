// platform::Vehicle: the one path from a parsed model to simulated hardware
// and a running platform (paper Sec. 2.2 / 2.4). The contract tests pin how
// each model attribute maps onto media, ECUs and nodes; the generated-model
// property test checks that whatever the verifier accepts also installs.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dse/exploration.hpp"
#include "model/parser.hpp"
#include "model/verifier.hpp"
#include "net/can_bus.hpp"
#include "net/ethernet.hpp"
#include "net/flexray.hpp"
#include "platform/vehicle.hpp"
#include "sim/random.hpp"

namespace dynaplat::platform {
namespace {

static_assert(!std::is_copy_constructible_v<Vehicle>);
static_assert(!std::is_copy_assignable_v<Vehicle>);
static_assert(!std::is_move_constructible_v<Vehicle>);
static_assert(!std::is_move_assignable_v<Vehicle>);

// Every network kind and every ECU attribute the DSL knows, with values
// that differ from the os::EcuConfig / bus-config defaults.
const char* kEveryAttribute = R"(
network Body kind=can bitrate=250K
network Spine kind=ethernet bitrate=1G
network Zone kind=tsn bitrate=10M
network Chassis kind=flexray bitrate=5M
ecu Gateway mips=800 cores=2 memory=32M mmu=no crypto=yes asil=B os=posix network=Body
ecu Door mips=50 memory=8M network=Body
ecu Hub mips=5000 cores=4 memory=1G crypto=yes asil=D network=Spine
ecu Camera mips=2000 network=Zone
ecu Brake mips=300 network=Chassis
ecu Window mips=60 network=Body
ecu Bench mips=100
)";

TEST(Vehicle, EveryEcuAttributeReachesTheBuiltEcu) {
  sim::Simulator simulator;
  const model::ParsedSystem parsed = model::parse_system(kEveryAttribute);
  Vehicle vehicle(simulator, parsed);
  ASSERT_EQ(vehicle.ecus().size(), parsed.model.ecus().size());
  for (std::size_t i = 0; i < parsed.model.ecus().size(); ++i) {
    const model::EcuDef& def = parsed.model.ecus()[i];
    const os::Ecu& ecu = *vehicle.ecus()[i];  // model order
    SCOPED_TRACE(def.name);
    EXPECT_EQ(ecu.name(), def.name);
    EXPECT_EQ(&vehicle.ecu(def.name), &ecu);
    EXPECT_EQ(ecu.config().cpu.mips, def.mips);
    EXPECT_EQ(ecu.core_count(), static_cast<std::size_t>(def.cores));
    EXPECT_EQ(ecu.config().memory_bytes, def.memory_bytes);
    EXPECT_EQ(ecu.config().has_mmu, def.has_mmu);
    EXPECT_EQ(ecu.config().cpu.crypto_accelerator, def.crypto_accelerator);
    EXPECT_EQ(ecu.config().os, def.rtos ? os::OsKind::kRtos
                                        : os::OsKind::kGeneralPurpose);
  }
  const os::Ecu& gateway = vehicle.ecu("Gateway");
  EXPECT_EQ(gateway.core_count(), 2u);
  EXPECT_EQ(gateway.config().memory_bytes, 32ull << 20);
  EXPECT_FALSE(gateway.config().has_mmu);
  EXPECT_TRUE(gateway.config().cpu.crypto_accelerator);
  EXPECT_EQ(gateway.config().os, os::OsKind::kGeneralPurpose);
  EXPECT_EQ(vehicle.ecu("Door").config().os, os::OsKind::kRtos);
}

TEST(Vehicle, EachNetworkKindBuildsItsMediumAtTheModelBitrate) {
  sim::Simulator simulator;
  Vehicle vehicle(simulator, model::parse_system(kEveryAttribute));

  auto* can = dynamic_cast<net::CanBus*>(&vehicle.medium("Body"));
  ASSERT_NE(can, nullptr);
  EXPECT_EQ(can->name(), "Body");
  net::CanBus can_ref(simulator, "ref", {.bitrate_bps = 250'000});
  EXPECT_EQ(can->frame_duration(8), can_ref.frame_duration(8));

  for (const auto& [name, bps] :
       {std::pair<const char*, std::uint64_t>{"Spine", 1'000'000'000},
        {"Zone", 10'000'000}}) {
    auto* eth = dynamic_cast<net::EthernetSwitch*>(&vehicle.medium(name));
    ASSERT_NE(eth, nullptr) << name;
    EXPECT_EQ(eth->name(), name);
    net::EthernetSwitch eth_ref(simulator, "ref", {.link_bps = bps});
    EXPECT_EQ(eth->frame_duration(1000), eth_ref.frame_duration(1000));
  }

  auto* flexray = dynamic_cast<net::FlexRayBus*>(&vehicle.medium("Chassis"));
  ASSERT_NE(flexray, nullptr);
  EXPECT_EQ(flexray->name(), "Chassis");
  net::FlexRayBus flexray_ref(simulator, "ref", {.bitrate_bps = 5'000'000});
  EXPECT_EQ(flexray->frame_duration(64), flexray_ref.frame_duration(64));

  // The references above differ from each bus kind's default bitrate, so
  // equal durations prove the model's bitrate was used.
  EXPECT_NE(can->frame_duration(8),
            net::CanBus(simulator, "default", {}).frame_duration(8));
  EXPECT_NE(flexray->frame_duration(64),
            net::FlexRayBus(simulator, "default", {}).frame_duration(64));
  EXPECT_THROW(vehicle.medium("Nope"), std::out_of_range);
}

TEST(Vehicle, NodeIdsCountFromOnePerMediumInModelOrder) {
  sim::Simulator simulator;
  Vehicle vehicle(simulator, model::parse_system(kEveryAttribute));
  const std::map<std::string, std::pair<const char*, net::NodeId>> expected{
      {"Gateway", {"Body", 1}}, {"Door", {"Body", 2}},
      {"Hub", {"Spine", 1}},    {"Camera", {"Zone", 1}},
      {"Brake", {"Chassis", 1}}, {"Window", {"Body", 3}}};
  for (const auto& [ecu_name, attachment] : expected) {
    os::Ecu& ecu = vehicle.ecu(ecu_name);
    net::Medium& medium = vehicle.medium(attachment.first);
    EXPECT_EQ(ecu.medium(), &medium) << ecu_name;
    EXPECT_EQ(ecu.node_id(), attachment.second) << ecu_name;
    EXPECT_TRUE(medium.attached(ecu.node_id())) << ecu_name;
  }
  EXPECT_EQ(vehicle.medium("Body").attached_nodes(),
            (std::vector<net::NodeId>{1, 2, 3}));
}

TEST(Vehicle, EcuWithoutNetworkIsLeftUnconnected) {
  sim::Simulator simulator;
  Vehicle vehicle(simulator, model::parse_system(kEveryAttribute));
  EXPECT_EQ(vehicle.ecu("Bench").medium(), nullptr);
  EXPECT_THROW(vehicle.ecu("Nope"), std::out_of_range);
}

TEST(Vehicle, EveryEcuGetsANodeCarryingTheConfig) {
  sim::Simulator simulator;
  sim::Trace trace;
  VehicleConfig config;
  config.platform.enforce_verification = false;
  config.node.time_triggered = false;
  config.trace = &trace;
  Vehicle vehicle(simulator, model::parse_system(kEveryAttribute), config);
  DynamicPlatform& platform = vehicle.platform();
  EXPECT_FALSE(platform.config().enforce_verification);
  EXPECT_EQ(platform.node_names().size(), vehicle.ecus().size());
  for (const auto& ecu : vehicle.ecus()) {
    PlatformNode* node = platform.node(ecu->name());
    ASSERT_NE(node, nullptr) << ecu->name();
    EXPECT_EQ(&node->ecu(), ecu.get());
    EXPECT_FALSE(node->config().time_triggered);
    EXPECT_EQ(ecu->trace(), &trace);
  }
  EXPECT_EQ(vehicle.medium("Spine").trace(), &trace);
}

TEST(Vehicle, UndeclaredNetworkThrowsNamingEcuAndNetwork) {
  sim::Simulator simulator;
  try {
    Vehicle vehicle(simulator,
                    model::parse_system("network Net kind=can\n"
                                        "ecu A mips=100 network=Net\n"
                                        "ecu B mips=100 network=Missing\n"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("'B'"), std::string::npos) << message;
    EXPECT_NE(message.find("'Missing'"), std::string::npos) << message;
  }
}

// --- Platform-wide security (Sec. 4.2) --------------------------------------

// A producer on A, its modeled consumer on B, and C, which hosts no
// consumer of Tick. The access matrix is derived from this model.
const char* kSecuredVehicle = R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
ecu C mips=1000 memory=64M asil=D network=Net
interface Tick paradigm=event payload=8 period=10ms
app Producer class=deterministic asil=B memory=4M
  task work period=10ms wcet=100K priority=1
  provides Tick
app Consumer class=nondeterministic asil=QM memory=4M
  task poll period=50ms wcet=50K priority=8
  consumes Tick
deploy Producer -> A
deploy Consumer -> B
)";

class TickSource final : public Application {
 public:
  void on_task(const std::string&) override {
    const std::string& tick = context_.def->provides[0];
    context_.comm->publish(context_.service_id(tick), 1, {0},
                           context_.priority_of(tick));
  }
};

class TickSink final : public Application {
 public:
  explicit TickSink(int& received) : received_(received) {}
  void on_start(const AppContext& context) override {
    Application::on_start(context);
    context.comm->subscribe(
        context.service_id(context.def->consumes[0]), 1,
        [this](std::vector<std::uint8_t>, net::NodeId) { ++received_; });
  }

 private:
  int& received_;
};

struct SecurityProbe {
  int modeled = 0;            ///< events B's Consumer received
  int unmodeled = 0;          ///< events C's direct subscription received
  std::uint64_t rejected = 0;  ///< inbound messages refused, every node
};

SecurityProbe run_secured_vehicle(security::AuthMode mode,
                                  bool access_control) {
  sim::Simulator simulator;
  VehicleConfig config;
  config.platform.auth_mode = mode;
  config.platform.access_control = access_control;
  Vehicle vehicle(simulator, model::parse_system(kSecuredVehicle), config);
  DynamicPlatform& platform = vehicle.platform();
  SecurityProbe probe;
  platform.register_app("Producer",
                        [] { return std::make_unique<TickSource>(); });
  platform.register_app("Consumer", [&probe] {
    return std::make_unique<TickSink>(probe.modeled);
  });
  std::string reason;
  EXPECT_TRUE(platform.install_all(&reason)) << reason;
  platform.node("C")->comm().subscribe(
      platform.service_id("Tick"), 1,
      [&probe](std::vector<std::uint8_t>, net::NodeId) { ++probe.unmodeled; });
  simulator.run_until(sim::seconds(1));
  for (const std::string& name : platform.node_names()) {
    probe.rejected += platform.node(name)->comm().rejected_messages();
  }
  return probe;
}

TEST(Vehicle, AccessControlAdmitsOnlyModeledConsumers) {
  const SecurityProbe open =
      run_secured_vehicle(security::AuthMode::kNone, false);
  EXPECT_GT(open.modeled, 0);
  EXPECT_GT(open.unmodeled, 0);
  EXPECT_EQ(open.rejected, 0u);

  // The model-derived matrix refuses C's subscription at the provider and
  // leaves B's traffic untouched.
  const SecurityProbe guarded =
      run_secured_vehicle(security::AuthMode::kNone, true);
  EXPECT_EQ(guarded.modeled, open.modeled);
  EXPECT_EQ(guarded.unmodeled, 0);
  EXPECT_GT(guarded.rejected, 0u);

  // Session authentication on top: B still receives once its handshake is
  // paid; C still gets nothing.
  const SecurityProbe session =
      run_secured_vehicle(security::AuthMode::kSession, true);
  EXPECT_GT(session.modeled, 0);
  EXPECT_EQ(session.unmodeled, 0);
  EXPECT_GT(session.rejected, 0u);
}


// --- Generated models: what the verifier accepts, the platform installs -----

// A seeded random vehicle: 1-4 ECUs over all four network kinds (500-3000
// MIPS, random cores, memory, MMU, OS and ASIL) and 1-5 apps with 1-3 tasks
// each (WCETs up to 4M instructions), replicas, interfaces and 1-3
// candidate ECUs per app. The ranges straddle the schedulability boundary
// on purpose: that is where verifier and admission can disagree.
std::string generate_model(std::uint64_t seed) {
  sim::Random rng(seed);
  auto one_of = [&rng](std::initializer_list<const char*> options) {
    return std::string(options.begin()[rng.next_below(options.size())]);
  };
  auto below = [&rng](int bound) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(bound)));
  };
  std::string dsl = "network can kind=can bitrate=" + one_of({"500K", "1M"}) +
                    "\nnetwork eth kind=ethernet bitrate=" +
                    one_of({"100M", "1G"}) +
                    "\nnetwork tsn kind=tsn bitrate=1G"
                    "\nnetwork fr kind=flexray bitrate=10M\n";

  const int ecu_count = 1 + below(4);
  std::vector<std::string> ecus;
  for (int e = 0; e < ecu_count; ++e) {
    ecus.push_back("E" + std::to_string(e));
    dsl += "ecu " + ecus.back() +
           " mips=" + std::to_string(rng.uniform_int(500, 3000)) +
           " cores=" + std::to_string(1 + below(2)) +
           " memory=" + one_of({"16M", "64M", "256M"}) +
           " mmu=" + one_of({"yes", "yes", "yes", "no"}) +
           " os=" + one_of({"rtos", "rtos", "rtos", "posix"}) +
           " asil=" + one_of({"B", "C", "D", "D"}) +
           " network=" + one_of({"can", "eth", "tsn", "fr"}) + "\n";
  }

  const int app_count = 1 + below(5);
  const int interface_count = below(3);
  std::vector<std::vector<std::string>> provides(app_count);
  std::vector<std::vector<std::string>> consumes(app_count);
  for (int i = 0; i < interface_count; ++i) {
    const std::string name = "I" + std::to_string(i);
    dsl += "interface " + name + " paradigm=event payload=" +
           one_of({"8", "64"}) + " period=" + one_of({"10ms", "20ms"}) +
           " max_latency=" + one_of({"2ms", "10ms", "50ms"}) + "\n";
    const int provider = below(app_count);
    provides[provider].push_back(name);
    for (int a = 0; a < app_count; ++a) {
      if (a != provider && rng.chance(0.5)) consumes[a].push_back(name);
    }
  }

  for (int a = 0; a < app_count; ++a) {
    const std::string name = "App" + std::to_string(a);
    dsl += "app " + name + " class=" +
           one_of({"deterministic", "nondeterministic"}) +
           " asil=" + one_of({"QM", "A", "B", "C", "D"}) +
           " memory=" + one_of({"1M", "4M", "16M"}) +
           " replicas=" + one_of({"1", "1", "2"}) + "\n";
    const int tasks = 1 + below(3);
    for (int t = 0; t < tasks; ++t) {
      dsl += "  task t" + std::to_string(t) +
             " period=" + one_of({"5ms", "10ms", "20ms", "50ms"}) +
             " wcet=" + std::to_string(rng.uniform_int(10'000, 4'000'000)) +
             " priority=" + std::to_string(1 + below(12)) + "\n";
    }
    for (const std::string& interface : provides[a]) {
      dsl += "  provides " + interface + "\n";
    }
    for (const std::string& interface : consumes[a]) {
      dsl += "  consumes " + interface + "\n";
    }
    std::vector<std::string> candidates = ecus;
    for (std::size_t i = candidates.size(); i > 1; --i) {
      std::swap(candidates[i - 1], candidates[rng.next_below(i)]);
    }
    candidates.resize(1 + below(std::min(3, ecu_count)));
    dsl += "deploy " + name + " -> " + candidates[0];
    for (std::size_t c = 1; c < candidates.size(); ++c) {
      dsl += " | " + candidates[c];
    }
    dsl += "\n";
  }
  return dsl;
}

struct InstallOutcome {
  bool accepted = false;   ///< the platform's verifier reports no error
  bool installed = false;  ///< install_all succeeded
  std::string reason;      ///< install_all's reason on failure
};

InstallOutcome install_generated(model::ParsedSystem system) {
  sim::Simulator simulator;
  Vehicle vehicle(simulator, std::move(system));
  DynamicPlatform& platform = vehicle.platform();
  InstallOutcome outcome;
  outcome.accepted = !model::Verifier::has_errors(platform.verify());
  if (!outcome.accepted) return outcome;
  for (const model::AppDef& app : platform.system_model().apps()) {
    platform.register_app(app.name,
                          [] { return std::make_unique<Application>(); });
  }
  outcome.installed = platform.install_all(&outcome.reason);
  return outcome;
}

constexpr std::uint64_t kGeneratedSeeds = 5000;

// The verifier's cpu.schedulability, asil.ecu-certification and
// cpu.rtos-required rules ask the same admission test and host rule as
// node install, so every model the verifier accepts installs.
TEST(GeneratedModels, VerifierAcceptedModelsInstall) {
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= kGeneratedSeeds; ++seed) {
    const InstallOutcome outcome =
        install_generated(model::parse_system(generate_model(seed)));
    if (outcome.accepted) ++accepted;
    EXPECT_TRUE(!outcome.accepted || outcome.installed)
        << "seed " << seed << ": " << outcome.reason << "\n"
        << generate_model(seed);
  }
  RecordProperty("verifier_accepted", static_cast<int>(accepted));
  std::cout << accepted << " of " << kGeneratedSeeds
            << " generated models pass the verifier\n";
  // Guard the generator itself: it must keep producing models the verifier
  // accepts (675 of the 5000 today), or the property checks nothing.
  EXPECT_GT(accepted, kGeneratedSeeds / 10);
}

// Explorer results that fail install, keyed by (seed, strategy), with the
// reason each fails with. The test fails on an unlisted failure, on a
// listed result that installs (or is no longer feasible), and on a listed
// result failing for another reason.
//
// Seed 473's greedy result packs three apps onto the 2-core ECU E0. The
// verifier packs an ECU's apps first-fit-decreasing by utilization and
// finds a core for each; install packs them first-fit in deployment order
// and runs out of room on both cores (ROADMAP item 4, packing order).
const std::map<std::pair<std::uint64_t, std::string>, std::string>
    kKnownExplorerInstallFailures = {
        {{473, "greedy"}, "rejected: utilization 1.2702 > 1.0"},
};

// Every feasible DSE result, deployed exactly as the explorer chose it,
// passes the verifier and installs.
TEST(GeneratedModels, ExplorerResultsInstall) {
  std::size_t feasible = 0;
  for (std::uint64_t seed = 1; seed <= kGeneratedSeeds; ++seed) {
    const model::ParsedSystem generated =
        model::parse_system(generate_model(seed));
    dse::Explorer explorer(generated.model);
    for (const dse::ExplorationResult& result :
         {explorer.greedy(), explorer.simulated_annealing(300, seed, 1, 0)}) {
      if (!result.feasible) continue;
      ++feasible;
      model::ParsedSystem system{generated.model, {}};
      for (const model::AppDef& app : generated.model.apps()) {
        const auto hosts = result.assignment.placement.find(app.name);
        ASSERT_NE(hosts, result.assignment.placement.end());
        system.deployment.bindings.push_back({app.name, hosts->second});
      }
      const InstallOutcome outcome = install_generated(std::move(system));
      const auto known =
          kKnownExplorerInstallFailures.find({seed, result.strategy});
      if (known == kKnownExplorerInstallFailures.end()) {
        EXPECT_TRUE(outcome.accepted && outcome.installed)
            << "seed " << seed << " " << result.strategy << ": "
            << (outcome.accepted ? outcome.reason : "verifier errors");
      } else {
        EXPECT_TRUE(outcome.accepted && !outcome.installed)
            << "seed " << seed << " " << result.strategy
            << " is listed as a known install failure";
        EXPECT_EQ(outcome.reason, known->second)
            << "seed " << seed << " " << result.strategy
            << " failed for another reason";
      }
    }
  }
  RecordProperty("explorer_feasible", static_cast<int>(feasible));
  std::cout << feasible << " of " << 2 * kGeneratedSeeds
            << " explorer results are feasible\n";
  // Guard the generator: 3 247 of the 10 000 results are feasible today.
  EXPECT_GT(feasible, kGeneratedSeeds / 2);
}

}  // namespace
}  // namespace dynaplat::platform
