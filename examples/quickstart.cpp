// Quickstart: model a two-ECU vehicle slice in the DSL, verify it, bring up
// the dynamic platform and watch a deterministic producer feed a consumer
// over the service-oriented middleware.
//
//   $ ./quickstart
//
// Walks through the core dynaplat workflow:
//   1. describe hardware + apps + deployment in the DSL (Sec. 2.2),
//   2. run the verification engine,
//   3. build the simulated ECUs and the platform from the model,
//   4. install & start the deployed apps,
//   5. simulate and read back timing statistics.
#include <cstdio>
#include <memory>

#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "platform/vehicle.hpp"

using namespace dynaplat;

namespace {

const char* kModel = R"(
# Hardware: a central computer and a zone controller on a TSN backbone.
network Backbone kind=tsn bitrate=1G
ecu Central mips=5000 memory=512M mmu=yes crypto=yes asil=D os=rtos network=Backbone
ecu Zone mips=400 memory=64M mmu=yes asil=D os=rtos network=Backbone

# Interfaces: a 100 Hz wheel-speed event with a 5 ms latency budget.
interface WheelSpeed paradigm=event payload=8 period=10ms max_latency=5ms

# Apps: a deterministic sensor app and a consumer.
app WheelSensor class=deterministic asil=C memory=2M
  task sample period=10ms wcet=40K priority=1
  provides WheelSpeed

app StabilityControl class=deterministic asil=C memory=8M
  task control period=10ms wcet=400K priority=1
  consumes WheelSpeed

deploy WheelSensor -> Zone
deploy StabilityControl -> Central
)";

/// The sensor: publishes a monotonically increasing wheel speed.
class WheelSensorApp final : public platform::Application {
 public:
  void on_task(const std::string&) override {
    if (!active()) return;
    middleware::PayloadWriter writer;
    writer.f64(12.3 + 0.01 * static_cast<double>(ticks_++));
    context_.comm->publish(context_.service_id("WheelSpeed"), 1,
                           writer.take(),
                           context_.priority_of("WheelSpeed"));
  }

 private:
  std::uint64_t ticks_ = 0;
};

/// The consumer: tracks how many samples arrived and the last value.
class StabilityControlApp final : public platform::Application {
 public:
  void on_start(const platform::AppContext& context) override {
    Application::on_start(context);
    context_.comm->subscribe(
        context_.service_id("WheelSpeed"), 1,
        [this](std::vector<std::uint8_t> data, net::NodeId) {
          middleware::PayloadReader reader(data);
          last_speed_ = reader.f64();
          ++samples_;
        });
  }
  std::uint64_t samples() const { return samples_; }
  double last_speed() const { return last_speed_; }

 private:
  std::uint64_t samples_ = 0;
  double last_speed_ = 0.0;
};

}  // namespace

int main() {
  std::printf("== dynaplat quickstart ==\n\n");

  // 1. Parse the system description.
  model::ParsedSystem parsed = model::parse_system(kModel);
  std::printf("model: %zu ECUs, %zu apps, %zu interfaces\n",
              parsed.model.ecus().size(), parsed.model.apps().size(),
              parsed.model.interfaces().size());

  // 2. Verify it (the platform will re-check at install time too).
  model::Verifier verifier;
  const auto violations = verifier.verify(parsed.model, parsed.deployment);
  std::printf("verification: %zu finding(s)\n", violations.size());
  for (const auto& violation : violations) {
    std::printf("  [%s] %s %s: %s\n",
                violation.severity == model::Severity::kError ? "ERROR"
                                                              : "warn",
                violation.rule.c_str(), violation.subject.c_str(),
                violation.message.c_str());
  }

  // 3. Build the simulated hardware and the platform from the model.
  sim::Simulator simulator;
  platform::Vehicle vehicle(simulator, parsed);
  platform::DynamicPlatform& dp = vehicle.platform();

  // 4. Install the deployment.
  dp.register_app("WheelSensor",
                  [] { return std::make_unique<WheelSensorApp>(); });
  StabilityControlApp* control = nullptr;
  dp.register_app("StabilityControl", [&control] {
    auto app = std::make_unique<StabilityControlApp>();
    control = app.get();
    return app;
  });
  std::string reason;
  if (!dp.install_all(&reason)) {
    std::printf("install failed: %s\n", reason.c_str());
    return 1;
  }
  std::printf("\nplatform up: apps installed and started\n");

  // 5. Simulate five seconds of vehicle time.
  simulator.run_until(sim::seconds(5));

  std::printf("\nafter %.1f s simulated:\n", sim::to_s(simulator.now()));
  std::printf("  StabilityControl received %llu samples (last speed %.2f)\n",
              static_cast<unsigned long long>(control->samples()),
              control->last_speed());
  auto& cpu = vehicle.ecu("Central").processor();
  for (os::TaskId id : cpu.task_ids()) {
    const auto& stats = cpu.stats(id);
    if (stats.completions == 0) continue;
    std::printf("  task %-28s completions=%llu misses=%llu resp(mean)=%.0f us\n",
                cpu.config(id).name.c_str(),
                static_cast<unsigned long long>(stats.completions),
                static_cast<unsigned long long>(stats.deadline_misses),
                sim::to_us(static_cast<sim::Duration>(
                    stats.response_time.mean())));
  }
  const net::Medium& backbone = vehicle.medium("Backbone");
  std::printf("  backbone frames delivered: %llu (mean latency %.1f us)\n",
              static_cast<unsigned long long>(backbone.frames_delivered()),
              backbone.latency_stats().mean() / 1000.0);
  std::printf("\ndone.\n");
  return 0;
}
