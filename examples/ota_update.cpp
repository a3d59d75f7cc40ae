// Over-the-air update scenario (paper Sec. 3.2 + 4.1).
//
// A signed package arrives for a deterministic app. The weak target ECU
// delegates signature verification to an update master on the central
// computer (Sec. 4.1), then the platform performs the 4-phase staged update
// — start parallel, sync state, redirect, stop old — while the app's
// subscribers keep receiving. A stop-restart update of the same app is run
// afterwards for contrast.
#include <cstdio>
#include <memory>

#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "obs/export.hpp"
#include "platform/update.hpp"
#include "platform/vehicle.hpp"
#include "security/package.hpp"
#include "security/update_master.hpp"

using namespace dynaplat;

namespace {

const char* kModel = R"(
network backbone kind=ethernet bitrate=100M
ecu Central mips=5000 memory=512M crypto=yes asil=D network=backbone
ecu Door mips=50 memory=16M asil=B network=backbone

interface LockState paradigm=event payload=8 period=20ms

app DoorLock class=deterministic asil=B memory=2M
  task poll period=20ms wcet=20K priority=1
  provides LockState

deploy DoorLock -> Door
)";

class DoorLockApp final : public platform::Application {
 public:
  void on_task(const std::string&) override {
    ++cycles_;
    if (!active()) return;
    middleware::PayloadWriter writer;
    writer.u64(cycles_);
    context_.comm->publish(context_.service_id("LockState"), 1,
                           writer.take(),
                           context_.priority_of("LockState"));
  }
  std::vector<std::uint8_t> serialize_state() override {
    middleware::PayloadWriter writer;
    writer.u64(cycles_);
    return writer.take();
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    middleware::PayloadReader reader(state);
    cycles_ = reader.u64();
  }

 private:
  std::uint64_t cycles_ = 0;
};

}  // namespace

int main() {
  std::printf("== OTA update with update-master delegation ==\n\n");

  model::ParsedSystem parsed = model::parse_system(kModel);
  sim::Simulator simulator;
  sim::Trace trace;  // vehicle-wide observability sink
  platform::Vehicle vehicle(simulator, parsed, {.trace = &trace});
  platform::DynamicPlatform& dp = vehicle.platform();
  dp.register_app("DoorLock",
                  [] { return std::make_unique<DoorLockApp>(); });
  std::string reason;
  if (!dp.install_all(&reason)) {
    std::printf("install failed: %s\n", reason.c_str());
    return 1;
  }

  // --- Package security: OEM signs, weak ECU delegates verification. ------
  sim::Random rng(2017);
  const auto oem_key = crypto::RsaKeyPair::generate(768, rng);
  security::PackageSigner signer(oem_key);
  const auto package = signer.sign(
      "DoorLock", 2, std::vector<std::uint8_t>(96 * 1024, 0x42));
  std::printf("backend signed DoorLock v2 (%zu KiB, sig %zu bytes)\n",
              package.binary.size() / 1024, package.signature.size());

  security::UpdateMasterService master(dp.node("Central")->comm(),
                                       oem_key.pub);
  security::UpdateMasterClient client(dp.node("Door")->comm());

  // Subscriber that watches for service gaps during the update.
  std::uint64_t last_cycle = 0;
  std::uint64_t received = 0;
  sim::Time last_rx = 0;
  sim::Duration worst_gap = 0;
  dp.node("Central")->comm().subscribe(
      dp.service_id("LockState"), 1,
      [&](std::vector<std::uint8_t> data, net::NodeId) {
        middleware::PayloadReader reader(data);
        last_cycle = reader.u64();
        ++received;
        if (last_rx != 0) {
          worst_gap = std::max(worst_gap, simulator.now() - last_rx);
        }
        last_rx = simulator.now();
      });

  simulator.run_until(sim::seconds(1));
  std::printf("t=1s: %llu LockState events received, counter at %llu\n",
              static_cast<unsigned long long>(received),
              static_cast<unsigned long long>(last_cycle));

  // --- Verify on the weak ECU via the master, then staged-update. ---------
  platform::UpdateManager updates(dp);
  model::AppDef v2 = *parsed.model.app("DoorLock");
  v2.version = 2;

  bool verified = false;
  platform::UpdateReport staged_report;
  client.verify(package, [&](bool ok) {
    verified = ok;
    std::printf("t=%.3fs: update master verdict: %s\n",
                sim::to_s(simulator.now()), ok ? "AUTHENTIC" : "REJECTED");
    if (!ok) return;
    updates.staged_update(
        *dp.node("Door"), "DoorLock", v2,
        [] { return std::make_unique<DoorLockApp>(); },
        platform::UpdateConfig{},
        [&](platform::UpdateReport report) { staged_report = report; });
  });

  simulator.run_until(sim::seconds(3));
  if (!verified || !staged_report.success) {
    std::printf("update failed: %s\n", staged_report.reason.c_str());
    return 1;
  }
  std::printf(
      "t=%.3fs: staged update done (phase %d), serving=%s, ownership gap=%lld"
      " ns\n",
      sim::to_s(staged_report.finished), staged_report.phase_reached,
      staged_report.serving_label.c_str(),
      static_cast<long long>(staged_report.ownership_gap));
  std::printf("  counter continued at %llu (state carried to v2)\n",
              static_cast<unsigned long long>(last_cycle));
  std::printf("  worst inter-event gap so far: %.1f ms (nominal 20 ms)\n",
              sim::to_ms(worst_gap));

  // --- Contrast: stop-restart of the same app to v3. ----------------------
  const sim::Duration gap_before = worst_gap;
  model::AppDef v3 = v2;
  v3.version = 3;
  platform::UpdateReport restart_report;
  updates.stop_restart_update(
      *dp.node("Door"), staged_report.serving_label, v3,
      [] { return std::make_unique<DoorLockApp>(); },
      platform::UpdateConfig{},
      [&](platform::UpdateReport report) { restart_report = report; });
  simulator.run_until(sim::seconds(6));
  std::printf(
      "\nstop-restart to v3: ownership gap %.1f ms (vs %.1f ms staged)\n",
      sim::to_ms(restart_report.ownership_gap),
      sim::to_ms(staged_report.ownership_gap));
  std::printf("  worst inter-event gap grew from %.1f to %.1f ms\n",
              sim::to_ms(gap_before), sim::to_ms(worst_gap));
  std::printf(
      "\nThe staged protocol hides the update behind the running version; "
      "the\nstop-restart baseline exposes verification + restart time as "
      "outage.\n");

  // Export the whole run as a Chrome trace-event file: open ota_trace.json
  // in Perfetto (ui.perfetto.dev) or chrome://tracing to see task
  // executions, frame transmissions and the update phases on a timeline.
  if (obs::write_chrome_trace_file(trace.buffer(), "ota_trace.json")) {
    std::printf("\nwrote ota_trace.json (%zu trace events, load it in "
                "Perfetto)\n",
                trace.buffer().size());
  }
  return 0;
}
