#include "xil/testbench.hpp"

#include <cmath>

#include "middleware/payload.hpp"
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

model::SystemModel sil_model(const CruiseScenario& scenario) {
  model::SystemModel m;
  m.add_network({"backbone", model::NetworkKind::kEthernet, 100'000'000});

  model::EcuDef ctrl;
  ctrl.name = "CtrlEcu";
  ctrl.mips = scenario.ecu_mips;
  ctrl.max_asil = model::Asil::kD;
  ctrl.network = "backbone";
  m.add_ecu(ctrl);

  model::EcuDef io;
  io.name = "IoEcu";
  io.mips = 200;
  io.max_asil = model::Asil::kD;
  io.network = "backbone";
  m.add_ecu(io);

  model::InterfaceDef speed;
  speed.name = "SpeedSignal";
  speed.paradigm = model::Paradigm::kEvent;
  speed.payload_bytes = 8;
  speed.period = scenario.control_period;
  m.add_interface(speed);

  model::InterfaceDef throttle;
  throttle.name = "ThrottleCmd";
  throttle.paradigm = model::Paradigm::kEvent;
  throttle.payload_bytes = 16;
  throttle.period = scenario.control_period;
  m.add_interface(throttle);

  auto control_task = [&](const char* name, std::uint64_t instructions,
                          int priority) {
    model::TaskDef task;
    task.name = name;
    task.period = scenario.control_period;
    task.instructions = instructions;
    task.priority = priority;
    return task;
  };

  model::AppDef sensor;
  sensor.name = "SpeedSensor";
  sensor.app_class = model::AppClass::kDeterministic;
  sensor.asil = model::Asil::kC;
  sensor.memory_bytes = 1 << 20;
  sensor.tasks.push_back(control_task("sample", 20'000, 1));
  sensor.provides = {"SpeedSignal"};
  m.add_app(sensor);

  model::AppDef cruise;
  cruise.name = "CruiseCtl";
  cruise.app_class = model::AppClass::kDeterministic;
  cruise.asil = model::Asil::kC;
  cruise.memory_bytes = 2 << 20;
  cruise.tasks.push_back(control_task("control", 50'000, 1));
  cruise.consumes = {"SpeedSignal"};
  cruise.provides = {"ThrottleCmd"};
  m.add_app(cruise);

  model::AppDef actuator;
  actuator.name = "Actuator";
  actuator.app_class = model::AppClass::kDeterministic;
  actuator.asil = model::Asil::kC;
  actuator.memory_bytes = 1 << 20;
  actuator.tasks.push_back(control_task("apply", 20'000, 1));
  actuator.consumes = {"ThrottleCmd"};
  m.add_app(actuator);

  if (scenario.background_load_instructions > 0) {
    model::AppDef load;
    load.name = "BgLoad";
    load.app_class = model::AppClass::kNonDeterministic;
    load.asil = model::Asil::kQM;
    load.memory_bytes = 1 << 20;
    model::TaskDef task;
    task.name = "burn";
    task.period = 20 * sim::kMillisecond;
    task.instructions = scenario.background_load_instructions;
    task.priority = 12;
    load.tasks.push_back(task);
    m.add_app(load);
  }
  return m;
}

}  // namespace

CruiseResult run_sil(const CruiseScenario& scenario) {
  CruiseResult result;
  sim::Simulator simulator;
  sim::Trace trace;

  model::DeploymentDef deployment;
  deployment.bindings.push_back({"SpeedSensor", {"IoEcu"}});
  deployment.bindings.push_back({"CruiseCtl", {"CtrlEcu"}});
  deployment.bindings.push_back({"Actuator", {"IoEcu"}});
  if (scenario.background_load_instructions > 0) {
    deployment.bindings.push_back({"BgLoad", {"CtrlEcu"}});
  }
  platform::Vehicle vehicle(simulator,
                            {sil_model(scenario), std::move(deployment)},
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
  model::SystemModel m;
  m.add_network({"backbone", model::NetworkKind::kEthernet, 100'000'000});
  model::EcuDef adas_def;
  adas_def.name = "AdasEcu";
  adas_def.mips = scenario.ecu_mips;
  adas_def.max_asil = model::Asil::kD;
  adas_def.network = "backbone";
  m.add_ecu(adas_def);
  model::EcuDef io_def;
  io_def.name = "IoEcu";
  io_def.mips = 200;
  io_def.max_asil = model::Asil::kD;
  io_def.network = "backbone";
  m.add_ecu(io_def);

  auto event_interface = [&](const char* name, std::size_t payload) {
    model::InterfaceDef interface;
    interface.name = name;
    interface.paradigm = model::Paradigm::kEvent;
    interface.payload_bytes = payload;
    interface.period = scenario.control_period;
    m.add_interface(interface);
  };
  event_interface("RadarTrack", 24);
  event_interface("AccCmd", 16);

  auto control_app = [&](const char* name, const char* task,
                         std::uint64_t instructions,
                         std::vector<std::string> provides,
                         std::vector<std::string> consumes) {
    model::AppDef app;
    app.name = name;
    app.app_class = model::AppClass::kDeterministic;
    app.asil = model::Asil::kC;
    app.memory_bytes = 2 << 20;
    model::TaskDef task_def;
    task_def.name = task;
    task_def.period = scenario.control_period;
    task_def.instructions = instructions;
    task_def.priority = 1;
    app.tasks.push_back(task_def);
    app.provides = std::move(provides);
    app.consumes = std::move(consumes);
    m.add_app(app);
  };
  control_app("Radar", "measure", 30'000, {"RadarTrack"}, {});
  control_app("AccCtl", "plan", 120'000, {"AccCmd"}, {"RadarTrack"});
  control_app("AccAct", "apply", 20'000, {}, {"AccCmd"});

  model::DeploymentDef deployment;
  deployment.bindings.push_back({"Radar", {"IoEcu"}});
  deployment.bindings.push_back({"AccCtl", {"AdasEcu"}});
  deployment.bindings.push_back({"AccAct", {"IoEcu"}});

  platform::Vehicle vehicle(simulator, {std::move(m), std::move(deployment)});
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
