// ECU consolidation scenario (paper Sec. 1, Fig. 2): mixed-criticality
// applications — deterministic ADAS/chassis functions next to
// non-deterministic infotainment — consolidated onto a central computer.
//
// Demonstrates:
//   * design space exploration picking the deployment (Sec. 2.3),
//   * the platform's freedom-from-interference enforcement: the same
//     consolidated workload run twice, once with the time-triggered
//     platform layer, once on a naive fair scheduler (the ablation of E1).
#include <cstdio>
#include <memory>

#include "dse/exploration.hpp"
#include "model/parser.hpp"
#include "platform/vehicle.hpp"

using namespace dynaplat;

namespace {

const char* kModel = R"(
network Backbone kind=tsn bitrate=1G
ecu Central mips=2000 memory=1G mmu=yes crypto=yes asil=D os=rtos network=Backbone
ecu Aux mips=2000 memory=512M mmu=yes asil=D os=rtos network=Backbone

interface LaneModel paradigm=event payload=256 period=20ms max_latency=10ms
interface ObjectList paradigm=event payload=512 period=40ms max_latency=20ms
interface SteerCmd paradigm=event payload=16 period=10ms max_latency=5ms
interface MediaStream paradigm=stream payload=1400 bandwidth=20M

app LaneKeeping class=deterministic asil=D memory=32M
  task perceive period=20ms wcet=4M priority=1
  task actuate period=10ms wcet=1M priority=0
  provides SteerCmd LaneModel

app ObjectFusion class=deterministic asil=D memory=64M
  task fuse period=40ms wcet=8M priority=2
  provides ObjectList

app EmergencyBrake class=deterministic asil=D memory=16M
  task watch period=10ms wcet=800K priority=0
  consumes ObjectList

app Infotainment class=nondeterministic asil=QM memory=256M
  task render period=16ms wcet=6M priority=10
  provides MediaStream

app VoiceAssistant class=nondeterministic asil=QM memory=128M
  task listen period=50ms wcet=10M priority=12

deploy LaneKeeping -> Central | Aux
deploy ObjectFusion -> Central | Aux
deploy EmergencyBrake -> Central | Aux
deploy Infotainment -> Central | Aux
deploy VoiceAssistant -> Central | Aux
)";

class StubApp final : public platform::Application {};

struct RunStats {
  std::uint64_t da_misses = 0;
  std::uint64_t da_completions = 0;
  std::uint64_t nda_completions = 0;
  double worst_da_response_ms = 0.0;
};

RunStats run_consolidated(const model::ParsedSystem& parsed,
                          const model::DeploymentDef& deployment,
                          bool platform_isolation) {
  sim::Simulator simulator;
  platform::NodeConfig node_config;
  node_config.time_triggered = platform_isolation;
  platform::Vehicle vehicle(simulator, {parsed.model, deployment},
                            {.node = node_config});
  platform::DynamicPlatform& dp = vehicle.platform();
  if (!platform_isolation) {
    // Naive consolidation: one fair scheduler for everything.
    for (const auto& ecu : vehicle.ecus()) {
      ecu->processor().set_scheduler(os::make_fair(sim::kMillisecond));
    }
  }
  for (const auto& app : parsed.model.apps()) {
    dp.register_app(app.name, [] { return std::make_unique<StubApp>(); });
  }
  std::string reason;
  if (!dp.install_all(&reason)) {
    std::printf("  install failed: %s\n", reason.c_str());
    return {};
  }
  simulator.run_until(sim::seconds(10));

  RunStats stats;
  for (const auto& ecu : vehicle.ecus()) {
    auto& cpu = ecu->processor();
    for (os::TaskId id : cpu.task_ids()) {
      const auto& task_stats = cpu.stats(id);
      if (cpu.config(id).task_class == os::TaskClass::kDeterministic) {
        stats.da_misses += task_stats.deadline_misses;
        stats.da_completions += task_stats.completions;
        stats.worst_da_response_ms =
            std::max(stats.worst_da_response_ms,
                     task_stats.response_time.max() / 1e6);
      } else {
        stats.nda_completions += task_stats.completions;
      }
    }
  }
  return stats;
}

}  // namespace

int main() {
  std::printf("== ADAS + infotainment consolidation ==\n\n");
  model::ParsedSystem parsed = model::parse_system(kModel);

  // Let the explorer choose the concrete deployment among the variants.
  dse::Explorer explorer(parsed.model);
  const auto exploration = explorer.simulated_annealing(5'000, 1);
  std::printf("DSE (%s): cost %.1f after %llu candidates, feasible=%s\n",
              exploration.strategy.c_str(), exploration.cost,
              static_cast<unsigned long long>(
                  exploration.candidates_evaluated),
              exploration.feasible ? "yes" : "no");
  model::DeploymentDef deployment;
  for (const auto& [app, hosts] : exploration.assignment.placement) {
    deployment.bindings.push_back({app, hosts});
    std::printf("  %-16s -> %s\n", app.c_str(), hosts.front().c_str());
  }

  std::printf("\n-- with dynamic-platform isolation (TT windows) --\n");
  const RunStats isolated = run_consolidated(parsed, deployment, true);
  std::printf("  DA: %llu completions, %llu deadline misses, worst resp %.2f ms\n",
              static_cast<unsigned long long>(isolated.da_completions),
              static_cast<unsigned long long>(isolated.da_misses),
              isolated.worst_da_response_ms);
  std::printf("  NDA: %llu completions\n",
              static_cast<unsigned long long>(isolated.nda_completions));

  std::printf("\n-- naive consolidation (fair scheduler, no platform) --\n");
  const RunStats naive = run_consolidated(parsed, deployment, false);
  std::printf("  DA: %llu completions, %llu deadline misses, worst resp %.2f ms\n",
              static_cast<unsigned long long>(naive.da_completions),
              static_cast<unsigned long long>(naive.da_misses),
              naive.worst_da_response_ms);
  std::printf("  NDA: %llu completions\n",
              static_cast<unsigned long long>(naive.nda_completions));

  std::printf(
      "\nThe platform's time-triggered enforcement keeps the safety-critical "
      "tasks'\ndeadlines intact under infotainment load; naive consolidation "
      "does not.\n");
  return 0;
}
