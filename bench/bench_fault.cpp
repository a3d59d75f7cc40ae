// E13 -- Sec. 2.4/3.3: robustness under injected faults.
//
// Part A sweeps uniform frame loss against the middleware transport in
// reliable (CRC32 + ack/retry) and fire-and-forget mode: delivered
// fraction, retry count and wire overhead (frames per message, 3 data
// fragments being the loss-free minimum).
//
// Part B sweeps the fault-campaign seed against a triple-ECU platform with
// a replicated DA app under supervision: events injected, failovers, worst
// failover outage, and whether the fail-operational invariants held. Every
// row is reproducible from its seed alone.
//
// Machine-readable results go to BENCH_fault.json following the
// BENCH_monitor.json pattern so successive PRs accumulate a trajectory.
//
// `bench_fault --sweep [--threads=N] [--seeds=K]` runs a K-seed campaign
// sweep through sim::ScenarioSweep six times -- three alternating pairs of
// a serial run and one on N executing threads (the caller plus N - 1
// workers, default 4) -- checks that every per-seed fingerprint and the
// index-ordered merge is bit-identical across all six, and writes
// BENCH_fault_sweep.json with each arm's best wall time and their ratio.
// It exits nonzero if a seed fails that is not in the expected-failure
// table, or a seed in the table passes.
//
// `bench_fault --fuzz` is experiment E20: an equal-budget A/B of the
// coverage-guided chaos fuzzer (fault::FuzzScheduler) against a blind seed
// sweep from the same base config, a thread-count determinism check (the
// same search at 0/2/3 sweep workers must produce bit-identical journals
// and coverage), and a delta-debugging minimization demo that
// shrinks a known-failing campaign to a replayable JSON repro and verifies
// the repro trips the same invariant. Results go to BENCH_fuzz.json; the
// journal and repro land in fuzz_coverage.json / fuzz_repro.json. Exit
// status enforces the E20 gates, so CI can run this as a fuzz smoke job.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "fault/campaign.hpp"
#include "fault/fuzz.hpp"
#include "fault/invariants.hpp"
#include "fault/minimize.hpp"
#include "middleware/transport.hpp"
#include "model/parser.hpp"
#include "obs/json.hpp"
#include "platform/degradation.hpp"
#include "platform/redundancy.hpp"
#include "platform/vehicle.hpp"
#include "sim/sweep.hpp"

using namespace dynaplat;

namespace {

// --- Part A: transport under uniform loss -------------------------------------

struct TransportOutcome {
  double loss = 0.0;
  bool reliable = false;
  int sent = 0;
  int delivered = 0;
  std::uint64_t retries = 0;
  std::uint64_t delivery_failures = 0;
  std::uint64_t frames_on_wire = 0;
  double frames_per_message = 0.0;
};

TransportOutcome run_transport(double loss, bool reliable) {
  sim::Simulator simulator;
  middleware::TransportConfig config;
  config.reliable = reliable;
  config.ack_timeout = 10 * sim::kMillisecond;
  config.max_retries = 5;
  config.max_backoff = 80 * sim::kMillisecond;

  // Deterministic Bernoulli loss on every frame (data and acks alike);
  // the seed folds in the sweep point so rows are independent but stable.
  std::mt19937_64 rng(0xFA177ull ^ static_cast<std::uint64_t>(loss * 1000) ^
                      (reliable ? 0x1000000ull : 0ull));
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  TransportOutcome outcome;
  outcome.loss = loss;
  outcome.reliable = reliable;

  std::unique_ptr<middleware::Transport> a;
  std::unique_ptr<middleware::Transport> b;
  auto wire = [&](middleware::Transport* peer, net::NodeId src) {
    return [&, peer, src](net::Frame frame) {
      frame.src = src;
      ++outcome.frames_on_wire;
      if (coin(rng) < loss) return;  // lost in flight
      simulator.schedule_in(10 * sim::kMicrosecond,
                            [peer, frame] { peer->on_frame(frame); });
    };
  };
  a = std::make_unique<middleware::Transport>(
      [&](net::Frame frame) { wire(b.get(), 1)(std::move(frame)); }, 16,
      simulator, config);
  b = std::make_unique<middleware::Transport>(
      [&](net::Frame frame) { wire(a.get(), 2)(std::move(frame)); }, 16,
      simulator, config);
  b->set_handler([&outcome](net::NodeId, net::Payload,
                            const obs::TraceContext&) { ++outcome.delivered; });

  constexpr int kMessages = 200;
  const std::vector<std::uint8_t> message(25, 0x5A);  // 3 fragments
  for (int i = 0; i < kMessages; ++i) {
    simulator.schedule_at(static_cast<sim::Time>(i) * 5 * sim::kMillisecond,
                          [&a, &message, i] {
                            a->send(2, net::kPriorityLowest,
                                    static_cast<std::uint16_t>(i % 7),
                                    message);
                          });
  }
  simulator.run_until(sim::seconds(3));

  outcome.sent = kMessages;
  outcome.retries = a->retries();
  outcome.delivery_failures = a->delivery_failures();
  outcome.frames_per_message =
      static_cast<double>(outcome.frames_on_wire) / kMessages;
  return outcome;
}

// --- Part B: campaign seed sweep ----------------------------------------------

// The Aux app rides along as a low-priority NDA overrun target: its 6M-cycle
// task (6 ms on ECU C) stays under the 20 ms deadline at typical seeded
// overrun draws, and only crosses it past a 3.3x factor -- the top of the
// seeded range, reachable sooner with fuzzer-scaled magnitudes. A blind
// sweep of the base config (overrun family disabled) can reach none of it.
const char* kSystem = R"(
network eth kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=eth
ecu B mips=1000 memory=64M asil=D network=eth
ecu C mips=1000 memory=64M asil=D network=eth
interface Cmd paradigm=event payload=8 period=10ms
app Pilot class=deterministic asil=D memory=4M replicas=2
  task drive period=10ms wcet=100K priority=1
  provides Cmd
app Aux class=nondeterministic asil=QM memory=4M
  task churn period=20ms wcet=6M priority=8
deploy Pilot -> A | B | C
deploy Aux -> C
)";

class PilotApp final : public platform::Application {
 public:
  void on_task(const std::string&) override {
    ++step_;
    if (!active() || context_.def->provides.empty()) return;
    context_.comm->publish(context_.service_id(context_.def->provides[0]), 1,
                           {static_cast<std::uint8_t>(step_)},
                           context_.priority_of(context_.def->provides[0]));
  }
  std::vector<std::uint8_t> serialize_state() override {
    return {static_cast<std::uint8_t>(step_)};
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    if (!state.empty()) step_ = state[0];
  }

 private:
  std::uint64_t step_ = 0;
};

class AuxApp final : public platform::Application {};

struct CampaignOutcome {
  std::uint64_t seed = 0;
  std::size_t injected = 0;
  std::size_t failovers = 0;
  double worst_outage_ms = 0.0;
  bool invariants_passed = false;
  std::string violated;   ///< first violated invariant, empty when passed
  std::string violation;  ///< its detail
  std::string report;
  std::uint64_t fingerprint = 0;
  double wall_ms = 0.0;
};

/// The shared E13/E20 rig: triple ECU, replicated Pilot under supervision,
/// Aux overrun target on C, degradation manager engaged. Owns everything a
/// scenario needs so both the seed sweep and the fuzzer run through the
/// exact same platform.
struct Rig {
  sim::Trace trace;
  platform::Vehicle vehicle;
  platform::DynamicPlatform& dp;
  std::unique_ptr<platform::RedundancyManager> redundancy;
  std::unique_ptr<platform::DegradationManager> degradation;
  bool ok = false;

  explicit Rig(sim::Simulator& simulator)
      : vehicle(simulator, model::parse_system(kSystem),
                {.node = {.middleware = {.transport = {.reliable = true}}},
                 .trace = &trace}),
        dp(vehicle.platform()) {
    dp.register_app("Pilot", [] { return std::make_unique<PilotApp>(); });
    dp.register_app("Aux", [] { return std::make_unique<AuxApp>(); });
    if (!dp.install_all()) return;
    redundancy = std::make_unique<platform::RedundancyManager>(dp, "Pilot");
    redundancy->engage();
    degradation = std::make_unique<platform::DegradationManager>(dp);
    degradation->engage();
    ok = true;
  }

  /// Classic E13 target set (every ECU + backbone, no overrun target):
  /// identical to the pre-fuzzer bench, so Part B and the sweep keep their
  /// historical per-seed fingerprints.
  void add_classic_targets(fault::FaultCampaign& campaign) {
    campaign.set_trace(&trace);
    for (const auto& ecu : vehicle.ecus()) campaign.add_ecu(*ecu);
    campaign.add_medium(vehicle.medium("eth"));
  }

  /// Fuzz target set: Pilot replica ECUs for crash/memory, the backbone
  /// for network faults, Aux for overruns. ECU C stays out of the crash
  /// pool so the raw overrun task handle can never dangle across a restart
  /// (same rule as examples/chaos_campaign.cpp).
  void add_targets(fault::FaultCampaign& campaign) {
    campaign.set_trace(&trace);
    campaign.add_ecu(vehicle.ecu("A"));
    campaign.add_ecu(vehicle.ecu("B"));
    campaign.add_medium(vehicle.medium("eth"));
    const platform::AppInstance* aux = dp.node("C")->instance("Aux");
    campaign.add_overrun_target("C/churn",
                                vehicle.ecu("C").processor(aux->core),
                                aux->tasks[0]);
  }

  /// The invariants every fuzzed configuration must uphold -- deliberately
  /// the *guaranteed* subset (loose 1 s outage bound, no stranded
  /// reassembly, DA deadlines), so a violation is a real platform bug, not
  /// an aggressive-bound artifact. Verdicts land in the trace's coverage
  /// map; no bundle is dumped (empty recorder path).
  fault::InvariantReport check_fuzz_invariants(std::uint64_t seed) {
    fault::InvariantChecker checker;
    checker.require_failover_outage_below(*redundancy, 1 * sim::kSecond);
    checker.require_no_da_deadline_misses(dp);
    checker.require_no_stranded_reassembly(dp);
    fault::FlightRecorderConfig recorder;
    recorder.trace = &trace;
    recorder.seed = seed;
    recorder.path.clear();  // coverage verdicts only
    checker.set_flight_recorder(recorder);
    return checker.run();
  }
};

CampaignOutcome run_campaign(sim::Simulator& simulator, std::uint64_t seed) {
  bench::Stopwatch watch;
  Rig rig(simulator);
  if (!rig.ok) return {};

  fault::CampaignConfig campaign_config;
  campaign_config.seed = seed;
  campaign_config.start = 200 * sim::kMillisecond;
  campaign_config.horizon = 3 * sim::kSecond;
  campaign_config.episodes = 6;
  campaign_config.weight_overrun = 0.0;  // no overrun target registered
  fault::FaultCampaign campaign(simulator, campaign_config);
  rig.add_classic_targets(campaign);
  campaign.generate();
  campaign.arm();

  simulator.run_until(4 * sim::kSecond);

  fault::InvariantChecker checker;
  checker.require_failover_outage_below(*rig.redundancy,
                                        300 * sim::kMillisecond);
  checker.require_no_da_deadline_misses(rig.dp);
  // Detection limit: 3 missed heartbeats at 10 ms plus one supervisor tick.
  checker.require_faults_detected(campaign, rig.dp, rig.redundancy.get(),
                                  40 * sim::kMillisecond);
  checker.require_no_stranded_reassembly(rig.dp);

  CampaignOutcome outcome;
  outcome.seed = seed;
  outcome.injected = campaign.injected().size();
  outcome.failovers = rig.redundancy->failovers().size();
  for (const platform::FailoverEvent& event : rig.redundancy->failovers()) {
    outcome.worst_outage_ms =
        std::max(outcome.worst_outage_ms, sim::to_ms(event.outage));
  }
  const fault::InvariantReport report = checker.run();
  outcome.invariants_passed = report.passed;
  for (const fault::InvariantResult& r : report.results) {
    if (!r.passed) {
      outcome.violated = r.name;
      outcome.violation = r.detail;
      break;
    }
  }
  outcome.report = report.summary();
  outcome.fingerprint = campaign.fingerprint();
  outcome.wall_ms = watch.elapsed_ms();
  return outcome;
}

// --- Sweep mode (E13s): serial vs threaded ScenarioSweep ---------------------

/// Seeds of the sweep that fail one invariant, and the invariant they fail.
/// Seed 21 crashes the Pilot replica on ECU A and no failover follows; its
/// root cause (platform bug or too tight a bound) is not yet known. The
/// sweep gate fails on any other failing seed, and on seed 21 passing.
struct ExpectedFailure {
  std::uint64_t seed;
  const char* invariant;
};
constexpr ExpectedFailure kExpectedFailures[] = {
    {21, "injected_faults_detected"},
};

/// The invariant `seed` is expected to fail, or nullptr.
const char* expected_failure(std::uint64_t seed) {
  for (const ExpectedFailure& e : kExpectedFailures) {
    if (e.seed == seed) return e.invariant;
  }
  return nullptr;
}

struct SweepRun {
  double wall_ms = 0.0;
  std::vector<CampaignOutcome> outcomes;
  std::uint64_t merged = 0;
};

/// Runs seeds 1..`seeds` on the caller plus `workers` sweep workers.
SweepRun run_seed_sweep(std::size_t workers, std::size_t seeds) {
  SweepRun result;
  sim::ScenarioSweep sweep({.seed = 1, .threads = workers});
  bench::Stopwatch watch;
  result.outcomes = sweep.run<CampaignOutcome>(
      seeds, [](sim::ScenarioRun& run) {
        return run_campaign(run.simulator, run.index + 1);
      });
  result.wall_ms = watch.elapsed_ms();
  std::vector<std::uint64_t> fingerprints;
  fingerprints.reserve(result.outcomes.size());
  for (const CampaignOutcome& o : result.outcomes) {
    fingerprints.push_back(o.fingerprint);
  }
  result.merged = sim::ScenarioSweep::merge_fingerprints(fingerprints);
  return result;
}

void write_failures(obs::json::Writer& out, const char* key,
                    const std::vector<const CampaignOutcome*>& failures) {
  out.key(key).begin_array();
  for (const CampaignOutcome* o : failures) {
    out.begin_object()
        .member("seed", o->seed)
        .member("invariant", o->violated)
        .member("detail", o->violation)
        .end_object();
  }
  out.end_array();
}

/// Same merged fingerprint and the same per-seed verdicts.
bool same_outcomes(const SweepRun& a, const SweepRun& b) {
  if (a.merged != b.merged || a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const CampaignOutcome& x = a.outcomes[i];
    const CampaignOutcome& y = b.outcomes[i];
    if (x.fingerprint != y.fingerprint ||
        x.invariants_passed != y.invariants_passed ||
        x.violated != y.violated) {
      return false;
    }
  }
  return true;
}

/// `threads` counts executing threads: the serial arm runs on the caller
/// alone, the parallel arm on the caller plus threads - 1 workers. Three
/// alternating pairs (serial, threaded, threaded, serial, serial, threaded)
/// expose both arms to the same drift in host load; each arm reports its
/// best wall time, and the speedup is the ratio of the bests.
int sweep_main(std::size_t seeds, std::size_t threads) {
  bench::banner("E13s", "parallel campaign sweep: serial vs threaded");
  std::printf("seeds=%zu  parallel arm=%zu threads (caller + %zu workers)\n\n",
              seeds, threads, threads - 1);

  constexpr bool kThreadedRun[] = {false, true, true, false, false, true};
  std::vector<SweepRun> runs;
  for (const bool threaded : kThreadedRun) {
    runs.push_back(run_seed_sweep(threaded ? threads - 1 : 0, seeds));
  }
  const SweepRun& serial = runs.front();
  bool identical = true;
  double best_serial_ms = std::numeric_limits<double>::infinity();
  double best_threaded_ms = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    identical = identical && same_outcomes(serial, runs[i]);
    double& best = kThreadedRun[i] ? best_threaded_ms : best_serial_ms;
    best = std::min(best, runs[i].wall_ms);
  }

  std::size_t passed = 0;
  std::size_t expected_passes = 0;
  std::vector<const CampaignOutcome*> expected;
  std::vector<const CampaignOutcome*> unexpected;
  for (const CampaignOutcome& o : serial.outcomes) {
    const char* invariant = expected_failure(o.seed);
    if (o.invariants_passed) {
      ++passed;
      if (invariant != nullptr) {
        ++expected_passes;
        std::printf("seed %llu PASS, but is listed as failing %s\n",
                    static_cast<unsigned long long>(o.seed), invariant);
      }
      continue;
    }
    const bool as_expected = invariant != nullptr && o.violated == invariant;
    std::printf("seed %llu FAIL %s: %s (%s)\n",
                static_cast<unsigned long long>(o.seed), o.violated.c_str(),
                o.violation.c_str(), as_expected ? "expected" : "UNEXPECTED");
    (as_expected ? expected : unexpected).push_back(&o);
  }

  bench::Table table({"arm", "threads", "wall_ms", "merged_fingerprint"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    table.row({kThreadedRun[i] ? "threaded" : "serial",
               bench::fmt(kThreadedRun[i] ? threads : 1),
               bench::fmt(runs[i].wall_ms, 1), fault::hex_u64(runs[i].merged)});
  }

  const unsigned hw = bench::host_info().hardware_threads;
  const double speedup = best_serial_ms / best_threaded_ms;
  std::printf("\nfingerprints %s over 3 serial and 3 %zu-thread runs; "
              "invariants %zu/%zu (%zu expected failures, %zu unexpected); "
              "best %.1f ms serial, %.1f ms threaded, speedup %.2fx "
              "(host has %u hardware threads)\n",
              identical ? "bit-identical" : "DIVERGED", threads, passed,
              serial.outcomes.size(), expected.size(), unexpected.size(),
              best_serial_ms, best_threaded_ms, speedup, hw);
  if (!identical) return 1;

  const std::string threaded_wall_key =
      "wall_ms_" + std::to_string(threads) + "_threads";
  const bool written = bench::write_result(
      "BENCH_fault_sweep.json", "E13s_parallel_seed_sweep",
      [&](obs::json::Writer& out) {
        // An A/B on a box with fewer hardware threads than the parallel arm
        // measures scheduling overhead, not speedup -- flag it so readers
        // don't quote the number as a parallelism result.
        out.member("seeds", seeds)
            .member("threads", threads)
            .member("speedup_meaningful", hw >= threads)
            .member("bit_identical", identical)
            .member("invariants_passed", passed);
        write_failures(out, "expected_failures", expected);
        write_failures(out, "unexpected_failures", unexpected);
        out.member("merged_fingerprint", fault::hex_u64(serial.merged))
            .member("runs_per_arm", runs.size() / 2)
            .member("wall_ms_serial", bench::rounded(best_serial_ms, 2))
            .member(threaded_wall_key, bench::rounded(best_threaded_ms, 2))
            .member("thread_speedup", bench::rounded(speedup, 2));
      });
  return written && unexpected.empty() && expected_passes == 0 ? 0 : 1;
}

// --- Fuzz mode (E20): coverage-guided search vs blind sweep -------------------

/// One fuzz scenario: fresh rig, campaign from `config`, loose invariants,
/// coverage snapshot out. A pure function of the config -- the scheduler's
/// replay and thread-count contract.
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
  const fault::InvariantReport report =
      rig.check_fuzz_invariants(config.seed);
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

fault::CampaignConfig fuzz_base_config() {
  fault::CampaignConfig base;
  base.seed = 1;
  base.start = 200 * sim::kMillisecond;
  base.horizon = 3 * sim::kSecond;
  base.episodes = 6;
  base.weight_overrun = 0.0;  // the fuzzer has to *discover* this family
  return base;
}

/// Scripted-plan probe for the minimizer: same rig, explicit plan, tight
/// outage bound (any failover violates), horizon as absolute end time.
fault::ProbeVerdict run_scripted_probe(const std::vector<fault::FaultEvent>& plan,
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

int fuzz_main() {
  bench::banner("E20", "coverage-guided chaos fuzzing vs blind seed sweep");

  fault::FuzzConfig fuzz_config;
  fuzz_config.master_seed = 1;
  fuzz_config.base = fuzz_base_config();
  fuzz_config.rounds = 12;
  fuzz_config.batch = 8;
  const std::size_t budget =
      1 + static_cast<std::size_t>(fuzz_config.rounds * fuzz_config.batch);

  // --- Blind arm: same base, same budget, only the seed varies ---------------
  bench::Stopwatch blind_watch;
  obs::CoverageMap blind_cov;
  std::vector<std::size_t> blind_timeline;
  std::size_t blind_violations = 0;
  for (std::size_t i = 0; i < budget; ++i) {
    fault::CampaignConfig config = fuzz_config.base;
    config.seed = i + 1;
    const fault::FuzzRunResult r = run_fuzz_scenario(config);
    if (!r.invariants_passed) ++blind_violations;
    blind_cov.merge_from(r.coverage);
    blind_timeline.push_back(blind_cov.unique_hit_count());
  }
  const double blind_ms = blind_watch.elapsed_ms();

  // --- Fuzz arm: coverage-guided search, same budget -------------------------
  bench::Stopwatch fuzz_watch;
  fault::FuzzScheduler fuzzer(fuzz_config, run_fuzz_scenario);
  fuzzer.run();
  const double fuzz_ms = fuzz_watch.elapsed_ms();

  const std::size_t blind_keys = blind_cov.unique_hit_count();
  const std::size_t fuzz_keys = fuzzer.unique_keys();
  std::printf("budget: %zu scenarios per arm\n", budget);
  std::printf("blind sweep:  %zu unique coverage keys, %zu violations, "
              "%.1f ms\n", blind_keys, blind_violations, blind_ms);
  std::printf("fuzz search:  %zu unique coverage keys, %zu failures, "
              "%.1f ms, corpus %zu\n", fuzz_keys, fuzzer.failures().size(),
              fuzz_ms, fuzzer.corpus().size());
  const bool more_coverage = fuzz_keys > blind_keys;
  std::printf("coverage gate: fuzz %s blind (+%zd keys)\n",
              more_coverage ? ">" : "<=",
              static_cast<std::ptrdiff_t>(fuzz_keys) -
                  static_cast<std::ptrdiff_t>(blind_keys));

  // --- Thread determinism: same search at 2 and 3 sweep workers -------------
  bool threads_identical = true;
  const std::string serial_journal = fuzzer.journal_json();
  const std::uint64_t serial_cov_fp = fuzzer.coverage().fingerprint();
  for (const std::size_t threads : {std::size_t{2}, std::size_t{3}}) {
    fault::FuzzConfig threaded_config = fuzz_config;
    threaded_config.threads = threads;
    fault::FuzzScheduler threaded(threaded_config, run_fuzz_scenario);
    threaded.run();
    const bool same = threaded.journal_json() == serial_journal &&
                      threaded.coverage().fingerprint() == serial_cov_fp;
    std::printf("threads=%zu: journal+coverage %s serial\n", threads,
                same ? "bit-identical to" : "DIVERGED from");
    threads_identical = threads_identical && same;
  }

  // --- Minimization demo: shrink a known-failing campaign --------------------
  // A deliberately tight outage bound (1 ms -- any failover violates) makes
  // the failure guaranteed, so the demo exercises the minimizer machinery
  // end to end without depending on the fuzzer having found a real bug.
  fault::CampaignConfig demo = fuzz_base_config();
  demo.seed = 3;
  demo.episodes = 10;
  std::vector<fault::FaultEvent> demo_plan;
  {
    sim::Simulator simulator;
    Rig rig(simulator);
    fault::FaultCampaign campaign(simulator, demo);
    rig.add_targets(campaign);
    campaign.generate();
    demo_plan = campaign.plan();
  }
  const sim::Duration demo_horizon = demo.start + demo.horizon +
                                     1 * sim::kSecond;
  fault::Minimizer minimizer({}, run_scripted_probe);
  bench::Stopwatch min_watch;
  fault::Repro repro = minimizer.minimize(demo_plan, demo_horizon);
  const double min_ms = min_watch.elapsed_ms();
  repro.seed = demo.seed;
  bool repro_retrips = false;
  if (repro.failing) {
    fault::write_repro_file(repro, "fuzz_repro.json");
    // Round-trip: load the JSON back and replay it -- the repro must trip
    // the *same* invariant from the serialized form alone.
    std::string text = fault::repro_json(repro);
    fault::Repro loaded;
    if (fault::load_repro(text, &loaded)) {
      const fault::ProbeVerdict verdict =
          run_scripted_probe(loaded.plan, loaded.horizon);
      repro_retrips = verdict.violated && verdict.invariant == repro.invariant;
    }
    std::printf("\nminimization demo: %zu events -> %zu, horizon %.2fs -> "
                "%.2fs, %zu probe runs, %.1f ms; repro %s (%s)\n",
                repro.original_events, repro.plan.size(),
                sim::to_s(demo_horizon), sim::to_s(repro.horizon),
                repro.runs_used, min_ms,
                repro_retrips ? "re-trips" : "FAILED to re-trip",
                repro.invariant.c_str());
  } else {
    std::printf("\nminimization demo: campaign did not fail (unexpected)\n");
  }

  // --- Artifacts --------------------------------------------------------------
  if (!obs::json::write_file("fuzz_coverage.json", serial_journal)) {
    std::fprintf(stderr, "cannot write fuzz_coverage.json\n");
    return 1;
  }
  const bool written = bench::write_result(
      "BENCH_fuzz.json", "E20_coverage_guided_fuzz",
      [&](obs::json::Writer& out) {
        out.member("master_seed", fuzz_config.master_seed)
            .member("budget_scenarios", budget);
        out.key("blind")
            .begin_object()
            .member("unique_keys", blind_keys)
            .member("violations", blind_violations)
            .member("wall_ms", bench::rounded(blind_ms, 1))
            .end_object();
        out.key("fuzz")
            .begin_object()
            .member("unique_keys", fuzz_keys)
            .member("failures", fuzzer.failures().size())
            .member("wall_ms", bench::rounded(fuzz_ms, 1))
            .member("corpus", fuzzer.corpus().size())
            .member("rounds", fuzzer.rounds_completed())
            .member("batch", fuzz_config.batch)
            .end_object();
        const double per_sec = 1000.0 * static_cast<double>(budget) / fuzz_ms;
        out.member("scenarios_per_sec", bench::rounded(per_sec, 1))
            .member("strictly_more_coverage", more_coverage);
        out.key("coverage_timeline_blind").begin_array();
        for (const std::size_t keys : blind_timeline) out.value(keys);
        out.end_array();
        out.key("coverage_timeline_fuzz").begin_array();
        for (const std::size_t keys : fuzzer.timeline()) out.value(keys);
        out.end_array();
        out.key("thread_determinism").begin_object();
        out.key("threads").begin_array().value(0).value(2).value(3);
        out.end_array()
            .member("bit_identical", threads_identical)
            .member("coverage_fingerprint", fault::hex_u64(serial_cov_fp))
            .end_object();
        out.key("minimization_demo")
            .begin_object()
            .member("failing", repro.failing)
            .member("invariant", repro.invariant)
            .member("original_events", repro.original_events)
            .member("minimized_events", repro.plan.size())
            .member("original_horizon_ns", demo_horizon)
            .member("minimized_horizon_ns", repro.horizon)
            .member("probe_runs", repro.runs_used)
            .member("wall_ms", bench::rounded(min_ms, 1))
            .member("repro_file", "fuzz_repro.json")
            .member("repro_retrips", repro_retrips)
            .end_object();
      });
  if (!written) return 1;

  // E20 gates, in CI-smoke order of severity: a fuzz-found invariant
  // violation is a platform bug; the rest are fuzzer regressions.
  if (!fuzzer.failures().empty()) {
    std::fprintf(stderr, "FUZZ GATE: %zu invariant violation(s) found -- "
                 "first: %s (%s)\n", fuzzer.failures().size(),
                 fuzzer.failures()[0].violated.c_str(),
                 fuzzer.failures()[0].detail.c_str());
    return 2;
  }
  if (!more_coverage || !threads_identical || !repro_retrips) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep = false;
  bool fuzz = false;
  std::size_t seeds = 32;
  std::size_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep = true;
    } else if (std::strcmp(argv[i], "--fuzz") == 0) {
      fuzz = true;
    } else if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      seeds = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::strtoull(argv[i] + 10, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_fault [--sweep [--seeds=K] [--threads=N] | "
                   "--fuzz]\n");
      return 1;
    }
  }
  if (seeds == 0 || threads == 0) {
    std::fprintf(stderr, "--seeds and --threads must be positive\n");
    return 1;
  }
  if (fuzz) return fuzz_main();
  if (sweep) return sweep_main(seeds, threads);
  bench::banner("E13", "fault campaigns & reliable transport (Sec. 2.4/3.3)");

  std::printf("\n-- transport under uniform frame loss --\n");
  bench::Table loss_table({"loss_pct", "mode", "delivered", "retries",
                           "delivery_failures", "frames_per_msg"});
  std::vector<TransportOutcome> transport_samples;
  for (double loss : {0.0, 0.05, 0.10, 0.20, 0.30}) {
    for (bool reliable : {false, true}) {
      const TransportOutcome outcome = run_transport(loss, reliable);
      loss_table.row({bench::fmt(loss * 100, 0),
                      reliable ? "reliable" : "best-effort",
                      bench::fmt(outcome.delivered) + "/" +
                          bench::fmt(outcome.sent),
                      bench::fmt(outcome.retries),
                      bench::fmt(outcome.delivery_failures),
                      bench::fmt(outcome.frames_per_message, 2)});
      transport_samples.push_back(outcome);
    }
  }

  std::printf("\n-- campaign seed sweep (replicated DA app, 6 episodes) --\n");
  bench::Table seed_table({"seed", "injected", "failovers", "worst_outage_ms",
                           "invariants", "fingerprint", "wall_ms"});
  std::vector<CampaignOutcome> campaign_samples;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Simulator simulator;
    const CampaignOutcome outcome = run_campaign(simulator, seed);
    seed_table.row({bench::fmt(outcome.seed), bench::fmt(outcome.injected),
                    bench::fmt(outcome.failovers),
                    bench::fmt(outcome.worst_outage_ms, 1),
                    outcome.invariants_passed ? "PASS" : "FAIL",
                    fault::hex_u64(outcome.fingerprint),
                    bench::fmt(outcome.wall_ms, 1)});
    if (!outcome.invariants_passed) {
      std::printf("%s\n", outcome.report.c_str());
    }
    campaign_samples.push_back(outcome);
  }

  const bool written = bench::write_result(
      "BENCH_fault.json", "E13_fault_robustness", [&](obs::json::Writer& out) {
        out.key("transport_loss_sweep").begin_array();
        for (const TransportOutcome& s : transport_samples) {
          out.begin_object()
              .member("loss", bench::rounded(s.loss, 2))
              .member("reliable", s.reliable)
              .member("sent", s.sent)
              .member("delivered", s.delivered)
              .member("retries", s.retries)
              .member("delivery_failures", s.delivery_failures)
              .member("frames_per_message",
                      bench::rounded(s.frames_per_message, 3))
              .end_object();
        }
        out.end_array();
        out.key("campaign_seed_sweep").begin_array();
        for (const CampaignOutcome& s : campaign_samples) {
          out.begin_object()
              .member("seed", s.seed)
              .member("events_injected", s.injected)
              .member("failovers", s.failovers)
              .member("worst_outage_ms", bench::rounded(s.worst_outage_ms, 3))
              .member("invariants_passed", s.invariants_passed)
              .member("fingerprint", fault::hex_u64(s.fingerprint))
              .member("wall_ms", bench::rounded(s.wall_ms, 2))
              .end_object();
        }
        out.end_array();
      });
  return written ? 0 : 1;
}
