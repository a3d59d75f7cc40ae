// campaign_sweep: many seeds of the E13 chaos rig (triple ECU, replicated
// Pilot under supervision, reliable transport, crash/partition/loss
// faults), fanned out with sim::ScenarioSweep on min(4, nproc) threads.
// Model parse, verify and install run again for every scenario; loss drives
// retransmit, dedup, rebind and failover. The rig's Aux app consumes the
// Pilot's command event so the reliable transport carries application
// traffic through the faults.
#include <memory>
#include <string>

#include "fault/campaign.hpp"
#include "fault/invariants.hpp"
#include "model/parser.hpp"
#include "model/verifier.hpp"
#include "net/ethernet.hpp"
#include "platform/degradation.hpp"
#include "platform/platform.hpp"
#include "platform/redundancy.hpp"
#include "seed.hpp"
#include "sim/sweep.hpp"
#include "spans.hpp"
#include "vehicle_layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dynaplat;

/// Scenarios per unit: enough that the per-seed cost mix averages out.
constexpr std::size_t kScenarios = 1024;
/// Seed prefix run both serially and threaded as a determinism check.
constexpr std::size_t kPrefix = 64;
constexpr sim::Time kRunUntil = 4 * sim::kSecond;

const char* kSystem = R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
ecu C mips=1000 memory=64M asil=D network=Net
interface Cmd paradigm=event payload=8 period=10ms
app Pilot class=deterministic asil=D memory=4M replicas=2
  task drive period=10ms wcet=100K priority=1
  provides Cmd
app Aux class=nondeterministic asil=QM memory=4M
  task churn period=20ms wcet=6M priority=8
  consumes Cmd
deploy Pilot -> A | B | C
deploy Aux -> C
)";

/// Replicated DA producer: publishes its send time on every activation.
class PilotApp final : public platform::Application {
 public:
  explicit PilotApp(AppStats* stats) : stats_(stats) {}
  void on_task(const std::string&) override {
    spans::Scope span(spans::kAppCallback);
    ++stats_->activations;
    ++step_;
    if (!active()) return;
    std::vector<std::uint8_t> payload(8);
    put_stamp(payload, context_.simulator->now());
    ++stats_->send_calls;
    spans::Scope send(spans::kMiddlewareSend);
    context_.comm->publish(context_.service_id("Cmd"), 1, std::move(payload),
                           context_.priority_of("Cmd"));
  }
  std::vector<std::uint8_t> serialize_state() override {
    return {static_cast<std::uint8_t>(step_)};
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    if (!state.empty()) step_ = state[0];
  }

 private:
  AppStats* stats_;
  std::uint64_t step_ = 0;
};

/// NDA consumer of the command stream (and overrun target of E20).
class AuxApp final : public platform::Application {
 public:
  explicit AuxApp(AppStats* stats) : stats_(stats) {}
  void on_start(const platform::AppContext& context) override {
    Application::on_start(context);
    context_.comm->subscribe(
        context_.service_id("Cmd"), 1,
        [this](std::vector<std::uint8_t> data, net::NodeId) {
          spans::Scope span(spans::kAppCallback);
          ++stats_->activations;
          stats_->on_delivery(data, context_.simulator->now());
        });
  }
  void on_task(const std::string&) override {
    spans::Scope span(spans::kAppCallback);
    ++stats_->activations;
  }

 private:
  AppStats* stats_;
};

/// The E13 rig: owns everything one scenario needs.
struct Rig {
  sim::Simulator& simulator;
  sim::Trace trace;
  AppStats stats;
  model::ParsedSystem parsed;
  std::unique_ptr<net::EthernetSwitch> backbone;
  std::vector<std::unique_ptr<os::Ecu>> ecus;
  std::unique_ptr<platform::DynamicPlatform> dp;
  std::unique_ptr<platform::RedundancyManager> redundancy;
  std::unique_ptr<platform::DegradationManager> degradation;
  std::string error;

  explicit Rig(sim::Simulator& sim) : simulator(sim) {
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
          error = "model verification: " + v.rule + " " + v.subject;
          return;
        }
      }
    }
    spans::Scope span(spans::kPlatformInstall);
    backbone = std::make_unique<net::EthernetSwitch>(simulator, "eth",
                                                     net::EthernetConfig{});
    net::NodeId next_node = 1;
    for (const auto& ecu_def : parsed.model.ecus()) {
      os::EcuConfig config;
      config.name = ecu_def.name;
      config.cpu.mips = ecu_def.mips;
      config.memory_bytes = ecu_def.memory_bytes;
      ecus.push_back(std::make_unique<os::Ecu>(simulator, config,
                                               backbone.get(), next_node++,
                                               &trace));
    }
    platform::NodeConfig node_config;
    node_config.middleware.transport.reliable = true;
    platform::PlatformConfig platform_config;
    platform_config.enforce_verification = false;  // verified above
    dp = std::make_unique<platform::DynamicPlatform>(
        simulator, parsed.model, parsed.deployment, platform_config);
    for (auto& ecu : ecus) dp->add_node(*ecu, node_config);
    AppStats* app_stats = &stats;
    dp->register_app("Pilot", [app_stats] {
      return std::make_unique<PilotApp>(app_stats);
    });
    dp->register_app("Aux", [app_stats] {
      return std::make_unique<AuxApp>(app_stats);
    });
    std::string reason;
    if (!dp->install_all(&reason)) {
      error = "install failed: " + reason;
      return;
    }
    redundancy = std::make_unique<platform::RedundancyManager>(*dp, "Pilot");
    redundancy->engage();
    degradation = std::make_unique<platform::DegradationManager>(*dp);
    degradation->engage();
  }
};

struct ScenarioOutcome {
  bool ok = false;  ///< the rig came up
  bool passed = false;
  std::string error;
  std::uint64_t fingerprint = 0;
  std::vector<double> outages_ms;
  double os_response_p99_us = 0.0;
  double setup_s = 0.0;
  double host_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t activations = 0;
  std::uint64_t send_calls = 0;
  std::uint64_t delivered = 0;
  LayerCounts layers;
};

ScenarioOutcome run_scenario(sim::Simulator& simulator,
                             std::uint64_t campaign_seed) {
  spans::Scope scenario(spans::kScenario);
  ScenarioOutcome out;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Rig> rig;
  std::unique_ptr<fault::FaultCampaign> campaign;
  {
    spans::Scope span(spans::kScenarioSetup);
    rig = std::make_unique<Rig>(simulator);
    if (!rig->error.empty()) {
      out.error = rig->error;
      return out;
    }
    fault::CampaignConfig config;
    config.seed = campaign_seed;
    config.start = 200 * sim::kMillisecond;
    config.horizon = 3 * sim::kSecond;
    config.episodes = 6;
    config.weight_overrun = 0.0;  // no overrun target registered
    campaign = std::make_unique<fault::FaultCampaign>(simulator, config);
    campaign->set_trace(&rig->trace);
    for (auto& ecu : rig->ecus) campaign->add_ecu(*ecu);
    campaign->add_medium(*rig->backbone);
    campaign->generate();
    campaign->arm();
  }
  out.setup_s = seconds_between(start, Clock::now());
  {
    spans::Scope span(spans::kScenarioRun);
    spans::Scope kernel(spans::kSimRun);
    simulator.run_until(kRunUntil);
  }
  spans::Scope check(spans::kScenarioCheck);
  fault::InvariantChecker checker;
  checker.require_failover_outage_below(*rig->redundancy,
                                        300 * sim::kMillisecond);
  checker.require_no_da_deadline_misses(*rig->dp);
  checker.require_faults_detected(*campaign, *rig->dp, rig->redundancy.get(),
                                  40 * sim::kMillisecond);
  checker.require_no_stranded_reassembly(*rig->dp);
  const fault::InvariantReport report = checker.run();

  out.ok = true;
  out.passed = report.passed;
  out.events = simulator.events_executed();
  for (const platform::FailoverEvent& event : rig->redundancy->failovers()) {
    out.outages_ms.push_back(sim::to_ms(event.outage));
  }
  out.activations = rig->stats.activations;
  out.send_calls = rig->stats.send_calls;
  out.delivered = rig->stats.delivered;
  out.layers = collect_layers(*rig->dp, {rig->backbone.get()});
  out.os_response_p99_us = out.layers.response_p99_us;
  Fnv fp;
  fp.mix(campaign->fingerprint());
  fp.mix(report.passed ? 1 : 0);
  fp.mix(out.events);
  for (const double outage : out.outages_ms) fp.mix_double(outage);
  fp.mix(rig->stats.fingerprint());
  fp.mix(out.layers.fingerprint());
  out.fingerprint = fp.value();
  out.host_ms = seconds_between(start, Clock::now()) * 1e3;
  return out;
}

class CampaignSweep final : public Workload {
 public:
  explicit CampaignSweep(std::uint64_t seed) {
    for (std::size_t i = 0; i < kScenarios; ++i) {
      seeds_.push_back(derive(seed, 100 + i));
    }
  }

  const char* item_name() const override { return "scenarios"; }
  unsigned threads() const override { return worker_threads(); }

  void check_once(std::vector<std::string>& errors) override {
    // The merged fingerprint of a seed prefix must not depend on the thread
    // count: serial (inline) vs the threaded sweep.
    const std::uint64_t serial = merged_prefix(1);
    const std::uint64_t threaded = merged_prefix(threads());
    prefix_fingerprint_ = serial;
    if (serial != threaded) {
      errors.push_back("campaign prefix fingerprint differs serial vs " +
                       std::to_string(threads()) + " threads");
    }
  }

  UnitResult run_unit() override {
    UnitResult unit;
    const Clock::time_point start = Clock::now();
    std::vector<ScenarioOutcome> outcomes;
    {
      spans::Scope span(spans::kSweepRun);
      outcomes = sweep(seeds_.size(), threads());
    }
    const Clock::time_point finish = Clock::now();

    spans::Scope check(spans::kCheck);
    unit.run_s = seconds_between(start, finish);
    unit.items = static_cast<double>(outcomes.size());
    unit.sim_s = sim::to_s(kRunUntil) * static_cast<double>(outcomes.size());

    std::vector<std::uint64_t> fingerprints;
    std::vector<double> outages;
    std::vector<double> p99s;
    LayerCounts layers;
    std::uint64_t events = 0;
    std::uint64_t activations = 0;
    std::uint64_t send_calls = 0;
    std::uint64_t delivered = 0;
    std::uint64_t failed = 0;
    for (const ScenarioOutcome& o : outcomes) {
      if (!o.ok) {
        unit.errors.push_back("scenario did not come up: " + o.error);
        return unit;
      }
      fingerprints.push_back(o.fingerprint);
      outages.insert(outages.end(), o.outages_ms.begin(), o.outages_ms.end());
      p99s.push_back(o.os_response_p99_us);
      unit.item_ms.push_back(o.host_ms);
      unit.setup_samples.push_back(o.setup_s);
      layers.add(o.layers);
      events += o.events;
      activations += o.activations;
      send_calls += o.send_calls;
      delivered += o.delivered;
      if (!o.passed) ++failed;
    }
    // Failure accounting: scenarios vs invariant FAILs, reported as found.
    unit.ops = outcomes.size();
    unit.ops_failed = failed;

    const std::uint64_t merged =
        sim::ScenarioSweep::merge_fingerprints(fingerprints);
    std::vector<std::uint64_t> prefix(fingerprints.begin(),
                                      fingerprints.begin() + kPrefix);
    if (sim::ScenarioSweep::merge_fingerprints(prefix) != prefix_fingerprint_) {
      unit.errors.push_back(
          "campaign prefix fingerprint differs from the serial run");
    }
    unit.fingerprints = {{"campaign_merged", merged},
                         {"campaign_prefix", prefix_fingerprint_}};
    unit.sim_metrics = {
        {"failover_outage_p50_ms", percentile(outages, 0.50), "sim_ms"},
        {"failover_outage_p95_ms", percentile(outages, 0.95), "sim_ms"},
        {"failovers", static_cast<double>(outages.size()), "count"},
        {"invariant_fails", static_cast<double>(failed), "count"},
    };
    layers.response_p99_us = median(p99s);
    unit.counters = layers.metrics();
    unit.counters.push_back(
        {"sim.events", static_cast<double>(events), "count"});
    unit.counters.push_back(
        {"app.activations", static_cast<double>(activations), "count"});
    unit.counters.push_back(
        {"middleware.send_calls", static_cast<double>(send_calls), "count"});
    unit.counters.push_back(
        {"middleware.delivered", static_cast<double>(delivered), "count"});
    unit.counters.push_back(
        {"sweep.threads", static_cast<double>(threads()), "count"});
    return unit;
  }

  std::vector<Metric> report_metrics(
      const std::vector<UnitResult>& units) const override {
    std::vector<double> ms;
    for (const UnitResult& unit : units) {
      ms.insert(ms.end(), unit.item_ms.begin(), unit.item_ms.end());
    }
    return {
        {"scenario_ms_p50", percentile(ms, 0.50), "ms"},
        {"scenario_ms_p95", percentile(ms, 0.95), "ms"},
        {"scenario_ms_samples", static_cast<double>(ms.size()), "count"},
    };
  }

 private:
  /// Runs scenarios [0, n) on `threads` executing threads: the sweep's
  /// pool workers plus the calling thread, which takes jobs too.
  std::vector<ScenarioOutcome> sweep(std::size_t n, std::size_t threads) {
    sim::ScenarioSweep sweep({.seed = 1, .threads = threads - 1});
    return sweep.run<ScenarioOutcome>(n, [this](sim::ScenarioRun& run) {
      return run_scenario(run.simulator, seeds_[run.index]);
    });
  }

  std::uint64_t merged_prefix(std::size_t threads) {
    std::vector<std::uint64_t> fingerprints;
    for (const ScenarioOutcome& o : sweep(kPrefix, threads)) {
      fingerprints.push_back(o.fingerprint);
    }
    return sim::ScenarioSweep::merge_fingerprints(fingerprints);
  }

  std::vector<std::uint64_t> seeds_;
  std::uint64_t prefix_fingerprint_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_sweep(std::uint64_t seed) {
  return std::make_unique<CampaignSweep>(seed);
}

}  // namespace perfbench
