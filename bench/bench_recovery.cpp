// E15 -- Sec. 2.3 + 3.3: transactional recovery vs greedy re-placement.
//
// A fleet of apps on three victim ECUs plus two loaded survivors; k of the
// victims are killed at t = 2 s (staggered 30 ms apart). Two recovery
// mechanisms are compared on identical topologies:
//
//   legacy        ReconfigurationManager -- greedy first-fit-decreasing,
//                 per-app, no transaction, no soak.
//   orchestrator  RecoveryOrchestrator -- whole-vehicle DSE remap, staged
//                 apply in criticality order, soak window, whole-plan
//                 rollback on failure.
//
// Reported per (killed, mode): recovered/stranded apps and recovery latency
// (first fault -> last app re-hosted, including the orchestrator's soak).
// Expected shape: identical recovery coverage while capacity lasts -- the
// orchestrator pays its ~soak window of extra latency for atomicity -- and
// when a victim dies *while a plan is being applied*, the orchestrator
// rolls the half-applied plan back and re-plans against the new topology
// instead of layering a second greedy repair on top of the first.
//
// Gate: the bench exits nonzero unless, for 1, 2 and 3 killed ECUs, both
// arms recover every displaced app and strand none, the orchestrator's
// latency is at least the greedy arm's, every rolled-back plan restored
// the deployment exactly, and the 3-kill run rolls back at least one plan
// and still commits.
//
// Machine-readable results go to BENCH_recovery.json following the
// BENCH_fault.json pattern so successive PRs accumulate a trajectory.
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "bench/common.hpp"
#include "model/parser.hpp"
#include "platform/reconfiguration.hpp"
#include "platform/recovery.hpp"
#include "platform/vehicle.hpp"

using namespace dynaplat;

namespace {

struct Outcome {
  int killed = 0;
  const char* mode = "";
  int displaced = 0;
  int recovered = 0;
  int stranded = 0;
  double latency_ms = -1.0;
  int plans_committed = 0;
  int plans_rolled_back = 0;
  /// Every rolled-back plan restored the pre-plan deployment exactly.
  bool rollbacks_exact = true;
};

struct World {
  explicit World(model::ParsedSystem system)
      : vehicle(simulator, std::move(system),
                {.platform = {.enforce_verification = false}}) {}

  sim::Simulator simulator;
  platform::Vehicle vehicle;
};

// 3 victim ECUs x 2 apps each (one deterministic, one best-effort), 2
// survivors carrying base load. Candidate lists are permissive: they are
// the recovery search space, admission control gates the actual placement.
std::unique_ptr<World> build() {
  std::string dsl =
      "network Net kind=ethernet bitrate=100M\n"
      "ecu V1 mips=1000 memory=256M asil=D network=Net\n"
      "ecu V2 mips=1000 memory=256M asil=D network=Net\n"
      "ecu V3 mips=1000 memory=256M asil=D network=Net\n"
      "ecu S1 mips=1000 memory=256M asil=D network=Net\n"
      "ecu S2 mips=1000 memory=256M asil=D network=Net\n";
  for (int v = 1; v <= 3; ++v) {
    const std::string id = std::to_string(v);
    dsl += "app Ctl" + id +
           " class=deterministic asil=D memory=4M\n"
           "  task t period=10ms wcet=2000K priority=1\n";  // 0.20 util
    dsl += "app Aux" + id +
           " class=nondeterministic asil=QM memory=4M\n"
           "  task t period=10ms wcet=1500K priority=3\n";  // 0.15 util
    dsl += "deploy Ctl" + id + " -> V" + id + " | S1 | S2\n";
    dsl += "deploy Aux" + id + " -> V" + id + " | S1 | S2\n";
  }
  for (const char* survivor : {"S1", "S2"}) {
    dsl += std::string("app Base") + survivor +
           " class=deterministic asil=B memory=4M\n"
           "  task t period=10ms wcet=3000K priority=2\n";  // 0.30 util
    dsl += std::string("deploy Base") + survivor + " -> " + survivor + "\n";
  }

  auto world = std::make_unique<World>(model::parse_system(dsl));
  platform::DynamicPlatform& dp = world->vehicle.platform();
  for (const auto& app : dp.system_model().apps()) {
    dp.register_app(app.name, [] {
      return std::make_unique<platform::Application>();
    });
  }
  if (!dp.install_all()) return nullptr;
  return world;
}

constexpr sim::Time kFirstFault = sim::seconds(2) + 7 * sim::kMillisecond;

void schedule_kills(World& world, int killed) {
  for (int v = 0; v < killed; ++v) {
    os::Ecu& victim = *world.vehicle.ecus()[v];
    world.simulator.schedule_at(kFirstFault + v * 30 * sim::kMillisecond,
                                [&victim] { victim.fail(); });
  }
}

Outcome run_legacy(int killed) {
  auto world = build();
  if (!world) return {};
  platform::ReconfigConfig config;
  config.check_period = 50 * sim::kMillisecond;
  platform::ReconfigurationManager reconfig(world->vehicle.platform(), config);
  reconfig.engage();
  schedule_kills(*world, killed);
  world->simulator.run_until(sim::seconds(10));

  Outcome outcome;
  outcome.killed = killed;
  outcome.mode = "legacy";
  outcome.displaced = 2 * killed;
  sim::Time last = 0;
  std::set<std::string> recovered;
  for (const auto& migration : reconfig.migrations()) {
    if (migration.success) {
      recovered.insert(migration.app);
      last = std::max(last, migration.at);
    }
  }
  outcome.recovered = static_cast<int>(recovered.size());
  outcome.stranded = static_cast<int>(reconfig.stranded().size());
  if (!recovered.empty()) outcome.latency_ms = sim::to_ms(last - kFirstFault);
  return outcome;
}

Outcome run_orchestrator(int killed) {
  auto world = build();
  if (!world) return {};
  platform::RecoveryConfig config;
  config.dse_iterations = 1'000;
  platform::RecoveryOrchestrator recovery(world->vehicle.platform(), config);
  recovery.engage();
  schedule_kills(*world, killed);
  world->simulator.run_until(sim::seconds(10));

  Outcome outcome;
  outcome.killed = killed;
  outcome.mode = "orchestrator";
  outcome.displaced = 2 * killed;
  sim::Time last = 0;
  std::set<std::string> recovered;
  for (const auto& plan : recovery.plans()) {
    if (plan.status == platform::PlanStatus::kCommitted) {
      ++outcome.plans_committed;
      for (const auto& step : plan.steps) recovered.insert(step.app);
      last = std::max(last, plan.finished_at);
    } else if (plan.status == platform::PlanStatus::kRolledBack) {
      ++outcome.plans_rolled_back;
      outcome.rollbacks_exact =
          outcome.rollbacks_exact && plan.restored_exactly;
    }
  }
  outcome.recovered = static_cast<int>(recovered.size());
  outcome.stranded = static_cast<int>(recovery.stranded().size() +
                                      recovery.abandoned().size());
  if (!recovered.empty()) outcome.latency_ms = sim::to_ms(last - kFirstFault);
  return outcome;
}

// The claims of the header, checked on this run (samples: legacy, then
// orchestrator, per kill count). Each broken claim is reported on stderr.
bool claims_hold(const std::vector<Outcome>& samples) {
  bool ok = true;
  const auto require = [&ok](bool holds, const Outcome& s, const char* claim) {
    if (!holds) {
      std::fprintf(stderr, "E15 gate: killed=%d %s: %s\n", s.killed, s.mode,
                   claim);
      ok = false;
    }
  };
  for (std::size_t i = 0; i + 1 < samples.size(); i += 2) {
    const Outcome& legacy = samples[i];
    const Outcome& orchestrator = samples[i + 1];
    for (const Outcome* arm : {&legacy, &orchestrator}) {
      require(arm->displaced == 2 * arm->killed &&
                  arm->recovered == arm->displaced && arm->stranded == 0,
              *arm, "not every displaced app recovered");
    }
    require(orchestrator.latency_ms >= legacy.latency_ms, orchestrator,
            "faster than the greedy arm (no soak window paid)");
    require(orchestrator.rollbacks_exact, orchestrator,
            "a rolled-back plan did not restore the deployment exactly");
    if (orchestrator.killed == 3) {
      require(orchestrator.plans_rolled_back >= 1 &&
                  orchestrator.plans_committed >= 1,
              orchestrator, "no plan rolled back, or none committed");
    }
  }
  return ok;
}

}  // namespace

int main() {
  bench::banner("E15", "transactional recovery vs greedy (Sec. 2.3 + 3.3)");
  std::vector<Outcome> samples;
  for (int killed : {1, 2, 3}) {
    samples.push_back(run_legacy(killed));
    samples.push_back(run_orchestrator(killed));
  }

  bench::Table table({"killed", "mode", "displaced", "recovered", "stranded",
                      "latency_ms", "committed", "rolled_back"});
  for (const Outcome& s : samples) {
    table.row({bench::fmt(s.killed), s.mode, bench::fmt(s.displaced),
               bench::fmt(s.recovered), bench::fmt(s.stranded),
               s.latency_ms < 0 ? "-" : bench::fmt(s.latency_ms, 0),
               bench::fmt(s.plans_committed),
               bench::fmt(s.plans_rolled_back)});
  }

  const bool written = bench::write_result(
      "BENCH_recovery.json", "E15_transactional_recovery",
      [&](obs::json::Writer& out) {
        out.key("kill_sweep").begin_array();
        for (const Outcome& s : samples) {
          out.begin_object()
              .member("killed", s.killed)
              .member("mode", s.mode)
              .member("displaced", s.displaced)
              .member("recovered", s.recovered)
              .member("stranded", s.stranded)
              .member("latency_ms", bench::rounded(s.latency_ms, 1))
              .member("plans_committed", s.plans_committed)
              .member("plans_rolled_back", s.plans_rolled_back)
              .end_object();
        }
        out.end_array();
      });
  const bool gated = claims_hold(samples);
  std::fprintf(stderr, "E15 gate: %s\n", gated ? "pass" : "FAIL");
  return written && gated ? 0 : 1;
}
