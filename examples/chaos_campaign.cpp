// Deterministic chaos campaign against a fail-operational vehicle platform
// (paper Sec. 2.4 "testing against uncertainty", Sec. 3.3/3.4).
//
// A replicated "Pilot" function steers from Front/Rear while an
// infotainment app rides along on the Cabin ECU. A seed-driven fault
// campaign then spends four seconds kicking the platform: ECU crashes,
// network partitions, babbling idiots, bursty loss, corruption, memory
// pressure — plus one scripted task overrun in the infotainment stack.
// The middleware runs its reliable transport (CRC32 + ack/retry), the
// redundancy manager keeps a primary alive, and the degradation manager
// sheds the misbehaving NDA app.
//
// The same seed reproduces the identical campaign bit for bit (the
// fingerprint printed at the end is the proof), and an invariant checker
// verifies the fail-operational properties afterwards:
//   * every failover stayed under the outage bound,
//   * deterministic tasks missed zero deadlines,
//   * every injected primary crash / overrun was detected,
//   * no reassembly buffers were left stranded.
//
// Usage:
//   chaos_campaign [seed]            single campaign (default seed 7)
//   chaos_campaign --fuzz [mseed]    coverage-guided search over campaign
//                                    configs (fault::FuzzScheduler); writes
//                                    chaos_fuzz_journal.json, and minimizes
//                                    any invariant violation it finds into
//                                    chaos_repro.json
//   chaos_campaign --minimize [seed] shrink the seed's campaign against a
//                                    tight failover-outage bound into a
//                                    minimal replayable repro
//                                    (chaos_repro.json), then verify the
//                                    repro re-trips the same invariant
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "fault/campaign.hpp"
#include "fault/fuzz.hpp"
#include "fault/invariants.hpp"
#include "fault/minimize.hpp"
#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "platform/degradation.hpp"
#include "platform/redundancy.hpp"
#include "platform/vehicle.hpp"

using namespace dynaplat;

namespace {

const char* kModel = R"(
network backbone kind=ethernet bitrate=1G
ecu Front mips=3000 memory=256M asil=D network=backbone
ecu Rear mips=3000 memory=256M asil=D network=backbone
ecu Cabin mips=2000 memory=256M asil=D network=backbone

interface Steering paradigm=event payload=16 period=10ms max_latency=5ms

app Pilot class=deterministic asil=D memory=32M replicas=2
  task plan period=10ms wcet=2M priority=1
  provides Steering

app Infotain class=nondeterministic asil=QM memory=16M
  task ui period=20ms wcet=100K priority=8
  consumes Steering

deploy Pilot -> Front | Rear
deploy Infotain -> Cabin
)";

class PilotApp final : public platform::Application {
 public:
  void on_task(const std::string&) override {
    ++plan_step_;
    if (!active()) return;
    middleware::PayloadWriter writer;
    writer.u64(plan_step_);
    context_.comm->publish(context_.service_id("Steering"), 1, writer.take(),
                           context_.priority_of("Steering"));
  }
  std::vector<std::uint8_t> serialize_state() override {
    middleware::PayloadWriter writer;
    writer.u64(plan_step_);
    return writer.take();
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    try {
      middleware::PayloadReader reader(state);
      plan_step_ = reader.u64();
    } catch (const std::out_of_range&) {
    }
  }

 private:
  std::uint64_t plan_step_ = 0;
};

class InfotainApp final : public platform::Application {};

/// The demo platform, built fresh per scenario so every run — interactive,
/// fuzzed, or a minimizer probe — is a pure function of its campaign.
struct Rig {
  sim::Trace trace;
  platform::Vehicle vehicle;
  platform::DynamicPlatform& dp;
  std::unique_ptr<platform::RedundancyManager> redundancy;
  std::unique_ptr<platform::DegradationManager> degradation;
  bool ok = false;

  explicit Rig(sim::Simulator& simulator)
      : vehicle(simulator, model::parse_system(kModel),
                // Reliable transport on every node: survive lossy episodes.
                {.node = {.middleware = {.transport = {.reliable = true}}},
                 .trace = &trace}),
        dp(vehicle.platform()) {
    dp.register_app("Pilot", [] { return std::make_unique<PilotApp>(); });
    dp.register_app("Infotain", [] { return std::make_unique<InfotainApp>(); });
    if (!dp.install_all()) return;
    redundancy = std::make_unique<platform::RedundancyManager>(dp, "Pilot");
    redundancy->engage();
    degradation = std::make_unique<platform::DegradationManager>(dp);
    degradation->engage();
    ok = true;
  }

  /// Crash/memory pool: the Pilot replicas only. Cabin stays up so its
  /// overrun target (a raw task handle) can never dangle across a restart.
  void add_targets(fault::FaultCampaign& campaign) {
    campaign.set_trace(&trace);
    campaign.add_ecu(vehicle.ecu("Front"));
    campaign.add_ecu(vehicle.ecu("Rear"));
    campaign.add_medium(vehicle.medium("backbone"));
    const platform::AppInstance* infotain =
        dp.node("Cabin")->instance("Infotain");
    campaign.add_overrun_target("Cabin/ui",
                                vehicle.ecu("Cabin").processor(infotain->core),
                                infotain->tasks[0]);
  }
};

fault::CampaignConfig base_config(std::uint64_t seed) {
  fault::CampaignConfig config;
  config.seed = seed;
  config.start = 500 * sim::kMillisecond;  // let discovery settle
  config.horizon = 4 * sim::kSecond;
  config.episodes = 8;
  // Generated overruns (1.5-4x) would not push the 0.05 ms ui task past its
  // 20 ms deadline; the single-campaign mode scripts a 600x episode to cover
  // that family with a guaranteed-detectable magnitude instead.
  config.weight_overrun = 0.0;
  return config;
}

// --- Fuzz mode ----------------------------------------------------------------

/// One fuzzed scenario: fresh rig, campaign from the mutated config, the
/// guaranteed invariant subset (loose 1 s outage bound — a violation is a
/// real bug, not a bound artifact), coverage out.
fault::FuzzRunResult run_fuzz_scenario(const fault::CampaignConfig& config) {
  sim::Simulator simulator;
  Rig rig(simulator);
  fault::FuzzRunResult result;
  if (!rig.ok) return result;
  fault::FaultCampaign campaign(simulator, config);
  rig.add_targets(campaign);
  campaign.generate();
  campaign.arm();
  simulator.run_until(config.start + config.horizon + 1 * sim::kSecond);
  fault::InvariantChecker checker;
  checker.require_failover_outage_below(*rig.redundancy, 1 * sim::kSecond);
  checker.require_no_da_deadline_misses(rig.dp);
  checker.require_no_stranded_reassembly(rig.dp);
  fault::FlightRecorderConfig recorder;
  recorder.trace = &rig.trace;
  recorder.seed = config.seed;
  recorder.path.clear();  // coverage verdicts only, no bundle
  checker.set_flight_recorder(recorder);
  const fault::InvariantReport report = checker.run();
  result.invariants_passed = report.passed;
  for (const fault::InvariantResult& r : report.results) {
    if (!r.passed) {
      result.violated = r.name;
      result.detail = r.detail;
      break;
    }
  }
  result.fingerprint = campaign.fingerprint();
  result.coverage.merge_from(rig.trace.coverage());
  return result;
}

/// Minimizer probe: replay an explicit plan against a tight outage bound
/// (1 ms — any failover violates), horizon as absolute end time.
fault::ProbeVerdict run_tight_probe(const std::vector<fault::FaultEvent>& plan,
                                    sim::Duration horizon) {
  sim::Simulator simulator;
  Rig rig(simulator);
  fault::ProbeVerdict verdict;
  if (!rig.ok) return verdict;
  fault::FaultCampaign campaign(simulator, fault::CampaignConfig{});
  rig.add_targets(campaign);
  for (const fault::FaultEvent& event : plan) campaign.schedule(event);
  campaign.arm();
  simulator.run_until(horizon);
  fault::InvariantChecker checker;
  checker.require_failover_outage_below(*rig.redundancy,
                                        1 * sim::kMillisecond);
  const fault::InvariantReport report = checker.run();
  for (const fault::InvariantResult& r : report.results) {
    if (!r.passed) {
      verdict.violated = true;
      verdict.invariant = r.name;
      verdict.detail = r.detail;
      break;
    }
  }
  return verdict;
}

int fuzz_mode(std::uint64_t master_seed) {
  std::printf("== coverage-guided chaos fuzz, master seed %llu ==\n\n",
              static_cast<unsigned long long>(master_seed));
  fault::FuzzConfig config;
  config.master_seed = master_seed;
  config.base = base_config(1);
  config.rounds = 6;
  config.batch = 6;
  fault::FuzzScheduler fuzzer(config, run_fuzz_scenario);
  fuzzer.run();

  std::printf("executed %zu scenarios over %d rounds\n", fuzzer.executed(),
              fuzzer.rounds_completed());
  std::printf("unique coverage keys: %zu\n", fuzzer.unique_keys());
  std::printf("corpus (%zu entries):\n", fuzzer.corpus().size());
  for (std::size_t i = 0; i < fuzzer.corpus().size(); ++i) {
    const fault::CorpusEntry& entry = fuzzer.corpus()[i];
    std::printf("  [%2zu] round %2d  op %-12s  +%zu edges  seed %016llx\n", i,
                entry.round, fault::to_string(entry.op), entry.new_edges,
                static_cast<unsigned long long>(entry.config.seed));
  }

  if (obs::json::write_file("chaos_fuzz_journal.json", fuzzer.journal_json())) {
    std::printf("wrote chaos_fuzz_journal.json (replay record)\n");
  }

  if (fuzzer.failures().empty()) {
    std::printf("\nno invariant violations found — the platform held.\n");
    return 0;
  }
  // A violation under the guaranteed invariants is a real finding: shrink
  // it to a minimal repro before reporting.
  const fault::FuzzFailure& failure = fuzzer.failures()[0];
  std::printf("\nVIOLATION: %s (%s)\nminimizing...\n",
              failure.violated.c_str(), failure.detail.c_str());
  std::vector<fault::FaultEvent> plan;
  {
    sim::Simulator simulator;
    Rig rig(simulator);
    fault::FaultCampaign campaign(simulator, failure.config);
    rig.add_targets(campaign);
    campaign.generate();
    plan = campaign.plan();
  }
  const sim::Duration horizon =
      failure.config.start + failure.config.horizon + 1 * sim::kSecond;
  // Probe with the same guaranteed invariants the fuzzer used.
  auto probe = [&](const std::vector<fault::FaultEvent>& p,
                   sim::Duration h) -> fault::ProbeVerdict {
    sim::Simulator simulator;
    Rig rig(simulator);
    fault::ProbeVerdict verdict;
    if (!rig.ok) return verdict;
    fault::FaultCampaign campaign(simulator, fault::CampaignConfig{});
    rig.add_targets(campaign);
    for (const fault::FaultEvent& event : p) campaign.schedule(event);
    campaign.arm();
    simulator.run_until(h);
    fault::InvariantChecker checker;
    checker.require_failover_outage_below(*rig.redundancy, 1 * sim::kSecond);
    checker.require_no_da_deadline_misses(rig.dp);
    checker.require_no_stranded_reassembly(rig.dp);
    const fault::InvariantReport report = checker.run();
    for (const fault::InvariantResult& res : report.results) {
      if (!res.passed) {
        verdict.violated = true;
        verdict.invariant = res.name;
        verdict.detail = res.detail;
        break;
      }
    }
    return verdict;
  };
  fault::Minimizer minimizer({}, probe);
  fault::Repro repro =
      minimizer.minimize(plan, horizon, failure.violated);
  repro.seed = failure.config.seed;
  if (repro.failing && fault::write_repro_file(repro, "chaos_repro.json")) {
    std::printf("minimized %zu events -> %zu (%zu probes); wrote "
                "chaos_repro.json\n", repro.original_events,
                repro.plan.size(), repro.runs_used);
  }
  return 1;
}

int minimize_mode(std::uint64_t seed) {
  std::printf("== minimize campaign seed %llu against tight outage bound ==\n\n",
              static_cast<unsigned long long>(seed));
  fault::CampaignConfig config = base_config(seed);
  config.episodes = 10;
  std::vector<fault::FaultEvent> plan;
  {
    sim::Simulator simulator;
    Rig rig(simulator);
    if (!rig.ok) {
      std::printf("platform install failed\n");
      return 1;
    }
    fault::FaultCampaign campaign(simulator, config);
    rig.add_targets(campaign);
    campaign.generate();
    plan = campaign.plan();
  }
  const sim::Duration horizon =
      config.start + config.horizon + 1 * sim::kSecond;
  std::printf("input: %zu events, horizon %.2fs\n", plan.size(),
              sim::to_s(horizon));

  fault::Minimizer minimizer({}, run_tight_probe);
  fault::Repro repro = minimizer.minimize(plan, horizon);
  repro.seed = seed;
  if (!repro.failing) {
    std::printf("campaign does not violate the tight bound (no failover "
                "occurred) — nothing to minimize; try another seed.\n");
    return 0;
  }
  std::printf("minimal repro: %zu events, horizon %.2fs, invariant %s "
              "(%zu probe runs)\n", repro.plan.size(), sim::to_s(repro.horizon),
              repro.invariant.c_str(), repro.runs_used);
  for (const fault::FaultEvent& event : repro.plan) {
    std::printf("  t=%7.3fs  %-18s %-10s magnitude=%.2f\n",
                sim::to_s(event.at), fault::to_string(event.kind),
                event.target.c_str(), event.magnitude);
  }
  if (!fault::write_repro_file(repro, "chaos_repro.json")) {
    std::printf("cannot write chaos_repro.json\n");
    return 1;
  }

  // Round-trip proof: reload the JSON and replay it — the serialized repro
  // alone must trip the same invariant.
  std::string text = fault::repro_json(repro);
  fault::Repro loaded;
  if (!fault::load_repro(text, &loaded)) {
    std::printf("repro round-trip parse failed\n");
    return 1;
  }
  const fault::ProbeVerdict verdict =
      run_tight_probe(loaded.plan, loaded.horizon);
  std::printf("replayed chaos_repro.json: %s\n",
              verdict.violated && verdict.invariant == repro.invariant
                  ? "re-trips the same invariant"
                  : "DOES NOT reproduce (bug!)");
  return verdict.violated && verdict.invariant == repro.invariant ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--fuzz") == 0) {
    return fuzz_mode(argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "--minimize") == 0) {
    return minimize_mode(argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7);
  }
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  std::printf("== chaos campaign, seed %llu ==\n\n",
              static_cast<unsigned long long>(seed));

  sim::Simulator simulator;
  Rig rig(simulator);
  if (!rig.ok) {
    std::printf("install failed\n");
    return 1;
  }

  // --- The campaign: generated episodes + one scripted overrun ---------------
  fault::CampaignConfig campaign_config = base_config(seed);
  fault::FaultCampaign campaign(simulator, campaign_config);
  rig.add_targets(campaign);
  campaign.generate();
  {
    // Scripted on top of the generated plan: the infotainment ui task wedges
    // at 600x its budget (0.05 ms -> 30 ms against a 20 ms deadline), and the
    // degradation manager is expected to shed it.
    fault::FaultEvent overrun;
    overrun.at = 2200 * sim::kMillisecond;
    overrun.kind = fault::FaultKind::kTaskOverrun;
    overrun.target = "Cabin/ui";
    overrun.magnitude = 600.0;
    campaign.schedule(overrun);
    fault::FaultEvent overrun_end;
    overrun_end.at = 2600 * sim::kMillisecond;
    overrun_end.kind = fault::FaultKind::kTaskOverrunEnd;
    overrun_end.target = "Cabin/ui";
    campaign.schedule(overrun_end);
  }
  campaign.arm();

  std::printf("campaign plan (%zu events):\n", campaign.plan().size());
  for (const fault::FaultEvent& event : campaign.plan()) {
    std::printf("  t=%7.3fs  %-18s %-10s magnitude=%.2f\n",
                sim::to_s(event.at), fault::to_string(event.kind),
                event.target.c_str(), event.magnitude);
  }

  simulator.run_until(6 * sim::kSecond);

  // --- What happened ----------------------------------------------------------
  std::printf("\nfailovers: %zu\n", rig.redundancy->failovers().size());
  for (const platform::FailoverEvent& event : rig.redundancy->failovers()) {
    std::printf("  t=%7.3fs  node %u promoted, outage %.1f ms\n",
                sim::to_s(event.promoted_at), event.new_primary,
                sim::to_ms(event.outage));
  }
  std::printf("final primary: %s\n", rig.redundancy->current_primary().c_str());

  std::printf("\ndegradation transitions: %zu (shed %zu, restored %zu)\n",
              rig.degradation->transitions().size(),
              rig.degradation->apps_shed(), rig.degradation->apps_restored());
  for (const platform::HealthTransition& event :
       rig.degradation->transitions()) {
    std::printf("  t=%7.3fs  %-6s %s -> %s (%s)\n", sim::to_s(event.at),
                event.ecu.c_str(), platform::to_string(event.from),
                platform::to_string(event.to), event.cause.c_str());
  }

  std::printf("\nreliable transport:\n");
  for (const char* name : {"Front", "Rear", "Cabin"}) {
    const middleware::Transport& transport =
        rig.dp.node(name)->comm().transport();
    std::printf(
        "  %-6s retries=%llu crc_failures=%llu dup_suppressed=%llu "
        "evictions=%llu delivery_failures=%llu\n",
        name, static_cast<unsigned long long>(transport.retries()),
        static_cast<unsigned long long>(transport.crc_failures()),
        static_cast<unsigned long long>(transport.duplicates_suppressed()),
        static_cast<unsigned long long>(transport.reassembly_evictions()),
        static_cast<unsigned long long>(transport.delivery_failures()));
  }

  // --- Verify the fail-operational properties --------------------------------
  fault::InvariantChecker checker;
  checker.require_failover_outage_below(*rig.redundancy,
                                        300 * sim::kMillisecond);
  checker.require_no_da_deadline_misses(rig.dp);
  // Crash blips shorter than the failover detection limit (3 missed 10 ms
  // heartbeats + one supervisor tick) legitimately cause no failover.
  checker.require_faults_detected(campaign, rig.dp, rig.redundancy.get(),
                                  40 * sim::kMillisecond);
  checker.require_no_stranded_reassembly(rig.dp);
  // Arm the flight recorder: the first violated invariant dumps one bundle
  // (trace tail + metrics + coverage + this seed) for off-line triage.
  fault::FlightRecorderConfig recorder;
  recorder.trace = &rig.trace;
  recorder.seed = seed;
  recorder.path = "chaos_postmortem.json";
  checker.set_flight_recorder(recorder);
  const fault::InvariantReport report = checker.run();
  std::printf("\ninvariants: %s\n", report.summary().c_str());
  if (!report.bundle_path.empty()) {
    std::printf("post-mortem bundle: %s\n", report.bundle_path.c_str());
  }

  std::printf("\ncampaign fingerprint: %016llx (%zu events injected)\n",
              static_cast<unsigned long long>(campaign.fingerprint()),
              campaign.injected().size());
  std::printf("re-run with the same seed to reproduce this exact timeline.\n");

  if (obs::write_chrome_trace_file(rig.trace.buffer(), "chaos_trace.json")) {
    std::printf("wrote chaos_trace.json (fault lane included)\n");
  }
  return report.passed ? 0 : 1;
}
