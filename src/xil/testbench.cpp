#include "xil/testbench.hpp"

#include <cmath>
#include <string>

#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "platform/vehicle.hpp"

namespace dynaplat::xil {

void SignalTrace::record(sim::Time at, double value) {
  samples_.push_back(Sample{at, value});
}

std::optional<sim::Time> SignalTrace::settling_time(double target,
                                                    double tolerance) const {
  std::optional<sim::Time> candidate;
  for (const auto& sample : samples_) {
    const bool inside = std::abs(sample.value - target) <= tolerance;
    if (inside && !candidate) {
      candidate = sample.at;
    } else if (!inside) {
      candidate.reset();
    }
  }
  return candidate;
}

double SignalTrace::overshoot(double target) const {
  double worst = 0.0;
  for (const auto& sample : samples_) {
    worst = std::max(worst, sample.value - target);
  }
  return worst;
}

double SignalTrace::steady_state_error(double target, double fraction) const {
  if (samples_.empty()) return 0.0;
  const std::size_t start = static_cast<std::size_t>(
      static_cast<double>(samples_.size()) * (1.0 - fraction));
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = start; i < samples_.size(); ++i) {
    sum += std::abs(samples_[i].value - target);
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double SignalTrace::minimum() const {
  double m = samples_.empty() ? 0.0 : samples_[0].value;
  for (const auto& sample : samples_) m = std::min(m, sample.value);
  return m;
}

double SignalTrace::maximum() const {
  double m = samples_.empty() ? 0.0 : samples_[0].value;
  for (const auto& sample : samples_) m = std::max(m, sample.value);
  return m;
}

CruiseResult run_mil(const CruiseScenario& scenario) {
  CruiseResult result;
  VehiclePlant::Params plant_params;
  plant_params.initial_speed_mps = scenario.initial_speed_mps;
  VehiclePlant plant(plant_params);
  PidController pid(scenario.gains);
  const double dt = sim::to_s(scenario.control_period);

  for (sim::Time t = 0; t <= scenario.duration;
       t += scenario.control_period) {
    result.speed.record(t, plant.speed_mps());
    const double error = scenario.target_speed_mps - plant.speed_mps();
    const double out = pid.update(error, dt);
    plant.step(std::max(out, 0.0), std::max(-out, 0.0) /*no brake gains*/,
               dt);
    ++result.events_executed;
  }
  result.settling_time =
      result.speed.settling_time(scenario.target_speed_mps, 0.5);
  result.overshoot_mps = result.speed.overshoot(scenario.target_speed_mps);
  result.steady_state_error_mps =
      result.speed.steady_state_error(scenario.target_speed_mps);
  return result;
}

namespace {

using middleware::PayloadReader;
using middleware::PayloadWriter;

constexpr middleware::ElementId kSignalEvent = 1;

class SensorApp final : public platform::Application {
 public:
  explicit SensorApp(VehiclePlant* plant) : plant_(plant) {}

  void on_task(const std::string&) override {
    if (!active()) return;
    PayloadWriter writer;
    writer.f64(plant_->speed_mps());
    context_.comm->publish(context_.service_id("SpeedSignal"), kSignalEvent,
                           writer.take(),
                           context_.priority_of("SpeedSignal"));
  }

 private:
  VehiclePlant* plant_;
};

class CruiseApp final : public platform::Application {
 public:
  CruiseApp(double target_mps, PidController::Gains gains, double dt_s)
      : target_(target_mps), pid_(gains), dt_(dt_s) {}

  void on_start(const platform::AppContext& context) override {
    Application::on_start(context);
    context_.comm->subscribe(
        context_.service_id("SpeedSignal"), kSignalEvent,
        [this](std::vector<std::uint8_t> data, net::NodeId) {
          try {
            PayloadReader reader(data);
            speed_ = reader.f64();
          } catch (const std::out_of_range&) {
          }
        });
  }

  void on_task(const std::string&) override {
    if (!active()) return;
    const double out = pid_.update(target_ - speed_, dt_);
    PayloadWriter writer;
    writer.f64(std::max(out, 0.0));   // throttle
    writer.f64(std::max(-out, 0.0));  // brake
    context_.comm->publish(context_.service_id("ThrottleCmd"), kSignalEvent,
                           writer.take(),
                           context_.priority_of("ThrottleCmd"));
  }

 private:
  double target_;
  PidController pid_;
  double dt_;
  double speed_ = 0.0;
};

class ActuatorApp final : public platform::Application {
 public:
  ActuatorApp(VehiclePlant* plant, SignalTrace* trace, double dt_s)
      : plant_(plant), trace_(trace), dt_(dt_s) {}

  void on_start(const platform::AppContext& context) override {
    Application::on_start(context);
    context_.comm->subscribe(
        context_.service_id("ThrottleCmd"), kSignalEvent,
        [this](std::vector<std::uint8_t> data, net::NodeId) {
          try {
            PayloadReader reader(data);
            throttle_ = reader.f64();
            brake_ = reader.f64();
          } catch (const std::out_of_range&) {
          }
        });
  }

  void on_task(const std::string&) override {
    if (!active()) return;
    trace_->record(context_.simulator->now(), plant_->speed_mps());
    plant_->step(throttle_, brake_, dt_);
  }

 private:
  VehiclePlant* plant_;
  SignalTrace* trace_;
  double dt_;
  double throttle_ = 0.0;
  double brake_ = 0.0;
};

class LoadApp final : public platform::Application {};

/// Deadline misses over every task of every ECU in the vehicle.
std::uint64_t deadline_misses(const platform::Vehicle& vehicle) {
  std::uint64_t misses = 0;
  for (const auto& ecu : vehicle.ecus()) {
    for (os::TaskId task : ecu->processor().task_ids()) {
      misses += ecu->processor().stats(task).deadline_misses;
    }
  }
  return misses;
}

// The SiL vehicle as model text. Element order fixes service and node ids.
std::string sil_model(const CruiseScenario& scenario) {
  const std::string period = std::to_string(scenario.control_period);
  std::string dsl =
      "network backbone kind=ethernet bitrate=100M\n"
      "ecu CtrlEcu mips=" + std::to_string(scenario.ecu_mips) +
      " asil=D network=backbone\n"
      "ecu IoEcu mips=200 asil=D network=backbone\n"
      "interface SpeedSignal paradigm=event payload=8 period=" + period + "\n"
      "interface ThrottleCmd paradigm=event payload=16 period=" + period +
      "\n"
      "app SpeedSensor class=deterministic asil=C memory=1M\n"
      "  task sample period=" + period + " wcet=20K priority=1\n"
      "  provides SpeedSignal\n"
      "app CruiseCtl class=deterministic asil=C memory=2M\n"
      "  task control period=" + period + " wcet=50K priority=1\n"
      "  consumes SpeedSignal\n"
      "  provides ThrottleCmd\n"
      "app Actuator class=deterministic asil=C memory=1M\n"
      "  task apply period=" + period + " wcet=20K priority=1\n"
      "  consumes ThrottleCmd\n";
  if (scenario.background_load_instructions > 0) {
    dsl += "app BgLoad class=nondeterministic asil=QM memory=1M\n"
           "  task burn period=20ms wcet=" +
           std::to_string(scenario.background_load_instructions) +
           " priority=12\n";
  }
  dsl +=
      "deploy SpeedSensor -> IoEcu\n"
      "deploy CruiseCtl -> CtrlEcu\n"
      "deploy Actuator -> IoEcu\n";
  if (scenario.background_load_instructions > 0) {
    dsl += "deploy BgLoad -> CtrlEcu\n";
  }
  return dsl;
}

}  // namespace

CruiseResult run_sil(const CruiseScenario& scenario) {
  CruiseResult result;
  sim::Simulator simulator;
  sim::Trace trace;

  platform::Vehicle vehicle(simulator,
                            model::parse_system(sil_model(scenario)),
                            {.trace = &trace});
  net::Medium& backbone = vehicle.medium("backbone");
  if (scenario.frame_loss_rate > 0.0) {
    backbone.set_fault_injection(scenario.frame_loss_rate);
  }
  platform::DynamicPlatform& dynaplatform = vehicle.platform();

  VehiclePlant::Params plant_params;
  plant_params.initial_speed_mps = scenario.initial_speed_mps;
  VehiclePlant plant(plant_params);
  const double dt = sim::to_s(scenario.control_period);

  dynaplatform.register_app("SpeedSensor", [&plant] {
    return std::make_unique<SensorApp>(&plant);
  });
  dynaplatform.register_app("CruiseCtl", [&scenario, dt] {
    return std::make_unique<CruiseApp>(scenario.target_speed_mps,
                                       scenario.gains, dt);
  });
  dynaplatform.register_app("Actuator", [&plant, &result, dt] {
    return std::make_unique<ActuatorApp>(&plant, &result.speed, dt);
  });
  dynaplatform.register_app("BgLoad",
                            [] { return std::make_unique<LoadApp>(); });

  std::string reason;
  if (!dynaplatform.install_all(&reason)) {
    // Surface setup failures loudly: a SiL bench must not silently produce
    // an empty trace.
    throw std::runtime_error("SiL setup failed: " + reason);
  }

  simulator.run_until(scenario.duration);

  result.deadline_misses = deadline_misses(vehicle);
  result.frames_dropped = backbone.frames_dropped();
  result.events_executed = simulator.events_executed();
  result.settling_time =
      result.speed.settling_time(scenario.target_speed_mps, 0.5);
  result.overshoot_mps = result.speed.overshoot(scenario.target_speed_mps);
  result.steady_state_error_mps =
      result.speed.steady_state_error(scenario.target_speed_mps);
  return result;
}

// --- Adaptive cruise control ---------------------------------------------------

namespace {

/// The shared ACC control law: acceleration demand from gap error and
/// closing speed, mapped to pedals. Used verbatim at both test levels.
struct AccControlLaw {
  double time_gap_s;
  double standstill_gap_m;

  /// Returns (throttle, brake) in [0, 1].
  std::pair<double, double> update(double gap_m, double own_mps,
                                   double lead_mps) const {
    const double desired = standstill_gap_m + time_gap_s * own_mps;
    const double gap_error = gap_m - desired;
    const double closing = lead_mps - own_mps;  // >0: gap opening
    const double accel_demand = 0.12 * gap_error + 0.8 * closing;
    if (accel_demand >= 0.0) {
      return {std::min(accel_demand / 3.0, 1.0), 0.0};
    }
    return {0.0, std::min(-accel_demand / 6.0, 1.0)};
  }
};

struct AccWorld {
  explicit AccWorld(const AccScenario& scenario)
      : own([&] {
          VehiclePlant::Params params;
          params.initial_speed_mps = scenario.own_initial_mps;
          return params;
        }()),
        lead(scenario.lead_initial_mps, scenario.initial_gap_m) {}

  double gap() const { return lead.position_m() - own.distance_m(); }

  VehiclePlant own;
  LeadVehicle lead;
};

void finalize_acc(const AccScenario& scenario, AccResult& result) {
  result.min_gap_m = result.gap.minimum();
  result.collision = result.min_gap_m <= 0.0;
  // Mean |gap - desired(speed)| over the trailing half; the gap and speed
  // traces are sampled at the same instants by construction.
  const auto& gaps = result.gap.samples();
  const auto& speeds = result.speed.samples();
  const std::size_t n = std::min(gaps.size(), speeds.size());
  double error_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = n / 2; i < n; ++i) {
    const double desired =
        scenario.standstill_gap_m + scenario.time_gap_s * speeds[i].value;
    error_sum += std::abs(gaps[i].value - desired);
    ++count;
  }
  result.mean_gap_error_m =
      count > 0 ? error_sum / static_cast<double>(count) : 0.0;
}

}  // namespace

AccResult run_acc_mil(const AccScenario& scenario) {
  AccResult result;
  AccWorld world(scenario);
  AccControlLaw law{scenario.time_gap_s, scenario.standstill_gap_m};
  const double dt = sim::to_s(scenario.control_period);
  bool braked = false;
  for (sim::Time t = 0; t <= scenario.duration;
       t += scenario.control_period) {
    if (!braked && t >= scenario.lead_brakes_at) {
      world.lead.command_speed(scenario.lead_brakes_to_mps);
      braked = true;
    }
    result.gap.record(t, world.gap());
    result.speed.record(t, world.own.speed_mps());
    const auto [throttle, brake] =
        law.update(world.gap(), world.own.speed_mps(),
                   world.lead.speed_mps());
    world.own.step(throttle, brake, dt);
    world.lead.step(dt);
    ++result.events_executed;
  }
  finalize_acc(scenario, result);
  return result;
}

namespace {

class RadarApp final : public platform::Application {
 public:
  explicit RadarApp(AccWorld* world) : world_(world) {}
  void on_task(const std::string&) override {
    if (!active()) return;
    PayloadWriter writer;
    writer.f64(world_->gap());
    writer.f64(world_->lead.speed_mps());
    writer.f64(world_->own.speed_mps());
    context_.comm->publish(context_.service_id("RadarTrack"), kSignalEvent,
                           writer.take(),
                           context_.priority_of("RadarTrack"));
  }

 private:
  AccWorld* world_;
};

class AccApp final : public platform::Application {
 public:
  explicit AccApp(AccControlLaw law) : law_(law) {}
  void on_start(const platform::AppContext& context) override {
    Application::on_start(context);
    context_.comm->subscribe(
        context_.service_id("RadarTrack"), kSignalEvent,
        [this](std::vector<std::uint8_t> data, net::NodeId) {
          try {
            PayloadReader reader(data);
            gap_ = reader.f64();
            lead_mps_ = reader.f64();
            own_mps_ = reader.f64();
          } catch (const std::out_of_range&) {
          }
        });
  }
  void on_task(const std::string&) override {
    if (!active()) return;
    const auto [throttle, brake] = law_.update(gap_, own_mps_, lead_mps_);
    PayloadWriter writer;
    writer.f64(throttle);
    writer.f64(brake);
    context_.comm->publish(context_.service_id("AccCmd"), kSignalEvent,
                           writer.take(), context_.priority_of("AccCmd"));
  }

 private:
  AccControlLaw law_;
  double gap_ = 100.0;
  double lead_mps_ = 0.0;
  double own_mps_ = 0.0;
};

class AccActuatorApp final : public platform::Application {
 public:
  AccActuatorApp(AccWorld* world, AccResult* result, double dt)
      : world_(world), result_(result), dt_(dt) {}
  void on_start(const platform::AppContext& context) override {
    Application::on_start(context);
    context_.comm->subscribe(
        context_.service_id("AccCmd"), kSignalEvent,
        [this](std::vector<std::uint8_t> data, net::NodeId) {
          try {
            PayloadReader reader(data);
            throttle_ = reader.f64();
            brake_ = reader.f64();
          } catch (const std::out_of_range&) {
          }
        });
  }
  void on_task(const std::string&) override {
    if (!active()) return;
    result_->gap.record(context_.simulator->now(), world_->gap());
    result_->speed.record(context_.simulator->now(),
                          world_->own.speed_mps());
    world_->own.step(throttle_, brake_, dt_);
    world_->lead.step(dt_);
  }

 private:
  AccWorld* world_;
  AccResult* result_;
  double dt_;
  double throttle_ = 0.0;
  double brake_ = 0.0;
};

}  // namespace

AccResult run_acc_sil(const AccScenario& scenario) {
  AccResult result;
  sim::Simulator simulator;
  const std::string period = std::to_string(scenario.control_period);
  const std::string dsl =
      "network backbone kind=ethernet bitrate=100M\n"
      "ecu AdasEcu mips=" + std::to_string(scenario.ecu_mips) +
      " asil=D network=backbone\n"
      "ecu IoEcu mips=200 asil=D network=backbone\n"
      "interface RadarTrack paradigm=event payload=24 period=" + period +
      "\n"
      "interface AccCmd paradigm=event payload=16 period=" + period + "\n"
      "app Radar class=deterministic asil=C memory=2M\n"
      "  task measure period=" + period + " wcet=30K priority=1\n"
      "  provides RadarTrack\n"
      "app AccCtl class=deterministic asil=C memory=2M\n"
      "  task plan period=" + period + " wcet=120K priority=1\n"
      "  provides AccCmd\n"
      "  consumes RadarTrack\n"
      "app AccAct class=deterministic asil=C memory=2M\n"
      "  task apply period=" + period + " wcet=20K priority=1\n"
      "  consumes AccCmd\n"
      "deploy Radar -> IoEcu\n"
      "deploy AccCtl -> AdasEcu\n"
      "deploy AccAct -> IoEcu\n";
  platform::Vehicle vehicle(simulator, model::parse_system(dsl));
  if (scenario.frame_loss_rate > 0.0) {
    vehicle.medium("backbone").set_fault_injection(scenario.frame_loss_rate);
  }
  platform::DynamicPlatform& dp = vehicle.platform();
  AccWorld world(scenario);
  AccControlLaw law{scenario.time_gap_s, scenario.standstill_gap_m};
  const double dt = sim::to_s(scenario.control_period);
  dp.register_app("Radar",
                  [&world] { return std::make_unique<RadarApp>(&world); });
  dp.register_app("AccCtl",
                  [law] { return std::make_unique<AccApp>(law); });
  dp.register_app("AccAct", [&world, &result, dt] {
    return std::make_unique<AccActuatorApp>(&world, &result, dt);
  });
  std::string reason;
  if (!dp.install_all(&reason)) {
    throw std::runtime_error("ACC SiL setup failed: " + reason);
  }
  simulator.schedule_at(scenario.lead_brakes_at, [&] {
    world.lead.command_speed(scenario.lead_brakes_to_mps);
  });
  simulator.run_until(scenario.duration);

  result.deadline_misses = deadline_misses(vehicle);
  result.events_executed = simulator.events_executed();
  finalize_acc(scenario, result);
  return result;
}

}  // namespace dynaplat::xil
