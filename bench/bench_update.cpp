// E3 -- Sec. 3.2: update safety.
//
// A deterministic 10 ms publisher is updated while a remote consumer
// watches. Strategies: the paper's 4-phase staged protocol, stop-restart
// (firmware-image style) and the centrally-switched baseline. Swept over
// application state size (which the staged protocol must transfer) and
// package verification cost (which stop-restart pays inside the outage).
//
// Expected shape: staged ownership gap == 0 and consumer-visible gap stays
// at the nominal period regardless of verify cost; stop-restart outage
// grows with verify cost; central switch outage == clock error.
#include <memory>

#include "bench/common.hpp"
#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "platform/update.hpp"
#include "platform/vehicle.hpp"

using namespace dynaplat;

namespace {

const char* kModel = R"(
network Net kind=ethernet bitrate=100M
ecu Host mips=200 memory=128M asil=D network=Net
ecu Peer mips=1000 memory=128M asil=D network=Net
interface Feed paradigm=event payload=8 period=10ms
app Pub class=deterministic asil=B memory=8M
  task tick period=10ms wcet=100K priority=1
  provides Feed
deploy Pub -> Host
)";

class StatefulPub final : public platform::Application {
 public:
  explicit StatefulPub(std::size_t state_bytes)
      : state_(state_bytes, 0x5A) {}
  void on_task(const std::string&) override {
    ++count_;
    if (!active()) return;
    middleware::PayloadWriter writer;
    writer.u64(count_);
    context_.comm->publish(context_.service_id("Feed"), 1, writer.take(), 2);
  }
  std::vector<std::uint8_t> serialize_state() override {
    middleware::PayloadWriter writer;
    writer.u64(count_);
    writer.blob(state_);
    return writer.take();
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    middleware::PayloadReader reader(state);
    count_ = reader.u64();
    state_ = reader.blob();
  }

 private:
  std::uint64_t count_ = 0;
  std::vector<std::uint8_t> state_;
};

struct Outcome {
  bool success = false;
  double ownership_gap_ms = 0.0;
  double consumer_gap_ms = 0.0;  // worst inter-event gap seen at consumer
  bool state_continuous = false;
  double total_ms = 0.0;
};

Outcome run(const std::string& strategy, std::size_t state_bytes,
            std::uint64_t verify_instructions) {
  sim::Simulator simulator;
  platform::Vehicle vehicle(simulator, model::parse_system(kModel));
  platform::DynamicPlatform& dp = vehicle.platform();
  dp.register_app("Pub", [state_bytes] {
    return std::make_unique<StatefulPub>(state_bytes);
  });
  if (!dp.install_all()) return {};

  std::uint64_t last_count = 0;
  sim::Time last_rx = 0;
  sim::Duration worst_gap = 0;
  bool monotonic = true;
  dp.node("Peer")->comm().subscribe(
      dp.service_id("Feed"), 1,
      [&](std::vector<std::uint8_t> data, net::NodeId) {
        middleware::PayloadReader reader(data);
        const std::uint64_t count = reader.u64();
        if (count < last_count) monotonic = false;
        last_count = count;
        if (last_rx != 0 && simulator.now() > sim::seconds(1)) {
          worst_gap = std::max(worst_gap, simulator.now() - last_rx);
        }
        last_rx = simulator.now();
      });
  simulator.run_until(sim::seconds(1));
  const std::uint64_t count_before = last_count;

  platform::UpdateManager updates(dp);
  platform::UpdateConfig config;
  config.preinstall_instructions = verify_instructions;
  model::AppDef v2 = *dp.system_model().app("Pub");
  v2.version = 2;
  auto factory = [state_bytes] {
    return std::make_unique<StatefulPub>(state_bytes);
  };

  platform::UpdateReport report;
  auto done = [&](platform::UpdateReport r) { report = r; };
  auto& node = *dp.node("Host");
  if (strategy == "staged") {
    updates.staged_update(node, "Pub", v2, factory, config, done);
  } else if (strategy == "stop_restart") {
    updates.stop_restart_update(node, "Pub", v2, factory, config, done);
  } else {
    updates.central_switch_update(node, "Pub", v2, factory, config, done);
  }
  simulator.run_until(sim::seconds(5));

  Outcome outcome;
  outcome.success = report.success;
  outcome.ownership_gap_ms = sim::to_ms(report.ownership_gap);
  outcome.consumer_gap_ms = sim::to_ms(worst_gap);
  outcome.state_continuous = monotonic && last_count > count_before;
  outcome.total_ms = sim::to_ms(report.finished - report.started);
  return outcome;
}

}  // namespace

int main() {
  bench::banner("E3", "staged runtime update vs baselines (Sec. 3.2)");
  bench::Table table({"strategy", "state_KiB", "verify_Minstr",
                      "ownership_gap_ms", "consumer_gap_ms", "total_ms",
                      "state_continuous"});
  for (const char* strategy : {"staged", "stop_restart", "central_switch"}) {
    for (std::size_t state_kib : {1u, 16u, 64u}) {
      for (std::uint64_t verify_m : {5u, 50u}) {
        const Outcome outcome =
            run(strategy, state_kib * 1024, verify_m * 1'000'000);
        table.row({strategy, bench::fmt(state_kib), bench::fmt(verify_m),
                   bench::fmt(outcome.ownership_gap_ms, 1),
                   bench::fmt(outcome.consumer_gap_ms, 1),
                   bench::fmt(outcome.total_ms, 1),
                   outcome.state_continuous ? "yes" : "NO"});
      }
    }
  }
  return 0;
}
