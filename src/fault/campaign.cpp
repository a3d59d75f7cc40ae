#include "fault/campaign.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/fnv.hpp"

namespace dynaplat::fault {

namespace {

/// Node id used as the source of babbling-idiot flood frames. Outside the
/// normal allocation range, so the flood is attributable in traces.
constexpr net::NodeId kBabblerNode = 0xBABB1E;

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEcuCrash: return "ecu_crash";
    case FaultKind::kEcuRestart: return "ecu_restart";
    case FaultKind::kBusPartition: return "bus_partition";
    case FaultKind::kBusHeal: return "bus_heal";
    case FaultKind::kBabbleStart: return "babble_start";
    case FaultKind::kBabbleEnd: return "babble_end";
    case FaultKind::kBurstLossStart: return "burst_loss_start";
    case FaultKind::kBurstLossEnd: return "burst_loss_end";
    case FaultKind::kCorruptionStart: return "corruption_start";
    case FaultKind::kCorruptionEnd: return "corruption_end";
    case FaultKind::kTaskOverrun: return "task_overrun";
    case FaultKind::kTaskOverrunEnd: return "task_overrun_end";
    case FaultKind::kMemoryPressure: return "memory_pressure";
    case FaultKind::kMemoryRelease: return "memory_release";
    case FaultKind::kBackendCrash: return "backend_crash";
    case FaultKind::kBackendRestart: return "backend_restart";
    case FaultKind::kUplinkPartition: return "uplink_partition";
    case FaultKind::kUplinkHeal: return "uplink_heal";
    case FaultKind::kBackendSlow: return "backend_slow";
    case FaultKind::kBackendSlowEnd: return "backend_slow_end";
  }
  return "?";
}

bool fault_kind_from_string(std::string_view name, FaultKind* out) {
  for (int k = 0; k <= static_cast<int>(FaultKind::kBackendSlowEnd); ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (name == to_string(kind)) {
      if (out != nullptr) *out = kind;
      return true;
    }
  }
  return false;
}

std::string hex_u64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool fault_kind_end_of(FaultKind start, FaultKind* end) {
  FaultKind paired;
  switch (start) {
    case FaultKind::kEcuCrash: paired = FaultKind::kEcuRestart; break;
    case FaultKind::kBusPartition: paired = FaultKind::kBusHeal; break;
    case FaultKind::kBabbleStart: paired = FaultKind::kBabbleEnd; break;
    case FaultKind::kBurstLossStart: paired = FaultKind::kBurstLossEnd; break;
    case FaultKind::kCorruptionStart:
      paired = FaultKind::kCorruptionEnd;
      break;
    case FaultKind::kTaskOverrun: paired = FaultKind::kTaskOverrunEnd; break;
    case FaultKind::kMemoryPressure:
      paired = FaultKind::kMemoryRelease;
      break;
    case FaultKind::kBackendCrash: paired = FaultKind::kBackendRestart; break;
    case FaultKind::kUplinkPartition: paired = FaultKind::kUplinkHeal; break;
    case FaultKind::kBackendSlow: paired = FaultKind::kBackendSlowEnd; break;
    default: return false;
  }
  if (end != nullptr) *end = paired;
  return true;
}

FaultCampaign::FaultCampaign(sim::Simulator& simulator, CampaignConfig config)
    : sim_(simulator), config_(config) {}

FaultCampaign::~FaultCampaign() {
  for (auto& [name, babbler] : babblers_) sim_.cancel(babbler.timer);
  for (const auto& id : armed_) sim_.cancel(id);
}

void FaultCampaign::add_ecu(os::Ecu& ecu) { ecus_.push_back(&ecu); }

void FaultCampaign::add_medium(net::Medium& medium) {
  media_.push_back(&medium);
}

void FaultCampaign::add_backend(
    ::dynaplat::backend::FleetScheduleService& service) {
  backends_.push_back(&service);
}

void FaultCampaign::add_overrun_target(std::string label,
                                       os::Processor& processor,
                                       os::TaskId task) {
  overruns_.push_back({std::move(label), {&processor, task}});
}

void FaultCampaign::schedule(FaultEvent event) {
  plan_.push_back(std::move(event));
}

void FaultCampaign::generate() {
  sim::Random rng(config_.seed);

  // Episode families available given the registered targets.
  struct Family {
    FaultKind start;
    FaultKind end;
    double weight;
    std::size_t targets;
  };
  std::vector<Family> families;
  if (!ecus_.empty() && config_.weight_crash > 0.0) {
    families.push_back({FaultKind::kEcuCrash, FaultKind::kEcuRestart,
                        config_.weight_crash, ecus_.size()});
  }
  if (!media_.empty()) {
    if (config_.weight_partition > 0.0) {
      families.push_back({FaultKind::kBusPartition, FaultKind::kBusHeal,
                          config_.weight_partition, media_.size()});
    }
    if (config_.weight_babble > 0.0) {
      families.push_back({FaultKind::kBabbleStart, FaultKind::kBabbleEnd,
                          config_.weight_babble, media_.size()});
    }
    if (config_.weight_burst > 0.0) {
      families.push_back({FaultKind::kBurstLossStart, FaultKind::kBurstLossEnd,
                          config_.weight_burst, media_.size()});
    }
    if (config_.weight_corruption > 0.0) {
      families.push_back({FaultKind::kCorruptionStart,
                          FaultKind::kCorruptionEnd,
                          config_.weight_corruption, media_.size()});
    }
  }
  if (!overruns_.empty() && config_.weight_overrun > 0.0) {
    families.push_back({FaultKind::kTaskOverrun, FaultKind::kTaskOverrunEnd,
                        config_.weight_overrun, overruns_.size()});
  }
  if (!ecus_.empty() && config_.weight_memory > 0.0) {
    families.push_back({FaultKind::kMemoryPressure, FaultKind::kMemoryRelease,
                        config_.weight_memory, ecus_.size()});
  }
  if (families.empty()) return;

  double total_weight = 0.0;
  for (const Family& family : families) total_weight += family.weight;

  const sim::Duration span =
      std::max<sim::Duration>(config_.max_duration, 1);
  for (int episode = 0; episode < config_.episodes; ++episode) {
    // Weighted family pick, then target / time / duration / magnitude —
    // always in this order, so the plan is a pure function of the seed.
    double roll = rng.uniform01() * total_weight;
    std::size_t pick = 0;
    while (pick + 1 < families.size() && roll >= families[pick].weight) {
      roll -= families[pick].weight;
      ++pick;
    }
    const Family& family = families[pick];
    const std::size_t target_index = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(family.targets)));
    const sim::Duration window =
        config_.horizon > span ? config_.horizon - span : 1;
    const sim::Time t0 =
        config_.start + static_cast<sim::Time>(rng.next_below(
                            static_cast<std::uint64_t>(window)));
    const sim::Duration duration =
        config_.min_duration +
        static_cast<sim::Duration>(rng.next_below(static_cast<std::uint64_t>(
            std::max<sim::Duration>(
                config_.max_duration - config_.min_duration, 1))));
    const double intensity = rng.uniform01();
    // Post-draw magnitude shaping: scale 1.0 must be the exact identity
    // (bit-for-bit legacy plans), so the clamp only engages when the
    // fuzzer actually dialed the scale away from 1.0.
    const auto shaped = [this](double base, double lo, double hi) {
      if (config_.magnitude_scale == 1.0) return base;
      return std::clamp(base * config_.magnitude_scale, lo, hi);
    };

    FaultEvent start;
    start.at = t0;
    start.kind = family.start;
    FaultEvent end;
    end.at = t0 + duration;
    end.kind = family.end;

    switch (family.start) {
      case FaultKind::kEcuCrash:
      case FaultKind::kMemoryPressure:
        start.target = end.target = ecus_[target_index]->name();
        start.magnitude = family.start == FaultKind::kMemoryPressure
                              ? shaped(0.5 + 0.4 * intensity, 0.05, 0.95)
                              : 0.0;
        break;
      case FaultKind::kBusPartition: {
        net::Medium* medium = media_[target_index];
        start.target = end.target = medium->name();
        const auto nodes = medium->attached_nodes();
        if (nodes.size() >= 2) {
          std::size_t island_size =
              1 + static_cast<std::size_t>(rng.next_below(nodes.size() - 1));
          if (config_.partition_fraction > 0.0) {
            // Draw-sequence-neutral override: the random size above was
            // still consumed, the topology bias just replaces the value.
            island_size = std::clamp<std::size_t>(
                static_cast<std::size_t>(config_.partition_fraction *
                                         static_cast<double>(nodes.size())),
                1, nodes.size() - 1);
          }
          start.island.insert(nodes.begin(),
                              nodes.begin() +
                                  static_cast<std::ptrdiff_t>(island_size));
        }
        break;
      }
      case FaultKind::kBabbleStart:
        start.target = end.target = media_[target_index]->name();
        // frames per millisecond
        start.magnitude = shaped(5.0 + 15.0 * intensity, 0.5, 200.0);
        break;
      case FaultKind::kBurstLossStart:
        start.target = end.target = media_[target_index]->name();
        // loss prob in Bad state
        start.magnitude = shaped(0.5 + 0.5 * intensity, 0.05, 0.995);
        break;
      case FaultKind::kCorruptionStart:
        start.target = end.target = media_[target_index]->name();
        start.magnitude = shaped(0.05 + 0.15 * intensity, 0.005, 0.9);
        break;
      case FaultKind::kTaskOverrun:
        start.target = end.target = overruns_[target_index].first;
        // execution-time scale
        start.magnitude = shaped(1.5 + 2.5 * intensity, 1.1, 64.0);
        break;
      default:
        break;
    }
    plan_.push_back(std::move(start));
    plan_.push_back(std::move(end));
  }
  sort_plan();
}

void FaultCampaign::sort_plan() {
  std::stable_sort(plan_.begin(), plan_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

void FaultCampaign::arm() {
  if (armed_once_) return;
  armed_once_ = true;
  sort_plan();
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const sim::Time at = std::max(plan_[i].at, sim_.now());
    armed_.push_back(
        sim_.schedule_at(at, [this, i] { execute(plan_[i]); }));
  }
}

os::Ecu* FaultCampaign::ecu_by_name(const std::string& name) {
  for (os::Ecu* ecu : ecus_) {
    if (ecu->name() == name) return ecu;
  }
  return nullptr;
}

net::Medium* FaultCampaign::medium_by_name(const std::string& name) {
  for (net::Medium* medium : media_) {
    if (medium->name() == name) return medium;
  }
  return nullptr;
}

::dynaplat::backend::FleetScheduleService* FaultCampaign::backend_by_name(
    const std::string& name) {
  for (::dynaplat::backend::FleetScheduleService* service : backends_) {
    if (service->name() == name) return service;
  }
  return nullptr;
}

void FaultCampaign::execute(const FaultEvent& event) {
  FaultEvent logged = event;
  logged.at = sim_.now();
  if (trace_ != nullptr) {
    if (trace_->enabled(sim::TraceCategory::kFault)) {
      trace_->record(logged.at, sim::TraceCategory::kFault,
                     "fault/" + event.target, to_string(event.kind),
                     static_cast<std::int64_t>(event.magnitude * 1000.0));
    }
    // Which fault kinds actually fired is itself state coverage: the fuzzer
    // rewards plans that exercise families a blind sweep's weights skip.
    trace_->coverage().hit(std::string("fault.injected.") +
                           to_string(event.kind));
  }

  switch (event.kind) {
    case FaultKind::kEcuCrash: {
      os::Ecu* ecu = ecu_by_name(event.target);
      if (ecu != nullptr) ecu->fail();
      break;
    }
    case FaultKind::kEcuRestart: {
      os::Ecu* ecu = ecu_by_name(event.target);
      if (ecu != nullptr) ecu->recover();
      break;
    }
    case FaultKind::kBusPartition: {
      net::Medium* medium = medium_by_name(event.target);
      if (medium == nullptr) break;
      std::set<net::NodeId> island = event.island;
      if (island.empty()) {
        const auto nodes = medium->attached_nodes();
        // Deterministic default: the lower half of the attached ids.
        for (std::size_t i = 0; i < nodes.size() / 2; ++i) {
          island.insert(nodes[i]);
        }
      }
      if (!island.empty()) medium->set_partition(std::move(island));
      break;
    }
    case FaultKind::kBusHeal: {
      net::Medium* medium = medium_by_name(event.target);
      if (medium != nullptr) medium->heal_partition();
      break;
    }
    case FaultKind::kBabbleStart: {
      net::Medium* medium = medium_by_name(event.target);
      if (medium != nullptr) start_babble(*medium, event.magnitude);
      break;
    }
    case FaultKind::kBabbleEnd:
      stop_babble(event.target);
      break;
    case FaultKind::kBurstLossStart: {
      net::Medium* medium = medium_by_name(event.target);
      if (medium == nullptr) break;
      net::GilbertElliott burst;
      burst.p_good_to_bad = 0.05;
      burst.p_bad_to_good = 0.2;
      burst.loss_good = 0.0;
      burst.loss_bad = event.magnitude;
      medium->set_burst_loss(burst);  // seed derived from the medium name
      break;
    }
    case FaultKind::kBurstLossEnd: {
      net::Medium* medium = medium_by_name(event.target);
      if (medium != nullptr) medium->clear_loss();
      break;
    }
    case FaultKind::kCorruptionStart: {
      net::Medium* medium = medium_by_name(event.target);
      if (medium != nullptr) medium->set_corruption(event.magnitude);
      break;
    }
    case FaultKind::kCorruptionEnd: {
      net::Medium* medium = medium_by_name(event.target);
      if (medium != nullptr) medium->set_corruption(0.0);
      break;
    }
    case FaultKind::kTaskOverrun:
    case FaultKind::kTaskOverrunEnd: {
      for (auto& [label, target] : overruns_) {
        if (label != event.target || target.processor == nullptr) continue;
        if (event.kind == FaultKind::kTaskOverrun) {
          target.processor->inject_overrun(target.task, event.magnitude);
        } else {
          target.processor->clear_overrun(target.task);
        }
      }
      break;
    }
    case FaultKind::kMemoryPressure: {
      os::Ecu* ecu = ecu_by_name(event.target);
      if (ecu == nullptr || hogs_.count(event.target) > 0) break;
      const std::size_t grab = static_cast<std::size_t>(
          static_cast<double>(ecu->memory().available()) * event.magnitude);
      if (grab == 0) break;
      const os::ProcessId hog =
          ecu->memory().create_process("__fault_hog", grab);
      if (hog == os::kInvalidProcess) break;
      ecu->memory().allocate(hog, grab);
      hogs_[event.target] = {ecu, hog};
      break;
    }
    case FaultKind::kMemoryRelease: {
      auto it = hogs_.find(event.target);
      if (it == hogs_.end()) break;
      it->second.ecu->memory().destroy_process(it->second.process);
      hogs_.erase(it);
      break;
    }
    case FaultKind::kBackendCrash: {
      auto* service = backend_by_name(event.target);
      if (service != nullptr) service->crash();
      break;
    }
    case FaultKind::kBackendRestart: {
      auto* service = backend_by_name(event.target);
      if (service != nullptr) service->restart();
      break;
    }
    case FaultKind::kUplinkPartition: {
      auto* service = backend_by_name(event.target);
      if (service != nullptr) service->set_partitioned(true);
      break;
    }
    case FaultKind::kUplinkHeal: {
      auto* service = backend_by_name(event.target);
      if (service != nullptr) service->set_partitioned(false);
      break;
    }
    case FaultKind::kBackendSlow: {
      auto* service = backend_by_name(event.target);
      if (service != nullptr) service->set_slow_factor(event.magnitude);
      break;
    }
    case FaultKind::kBackendSlowEnd: {
      auto* service = backend_by_name(event.target);
      if (service != nullptr) service->set_slow_factor(1.0);
      break;
    }
  }
  injected_.push_back(std::move(logged));
}

void FaultCampaign::start_babble(net::Medium& medium, double frames_per_ms) {
  const std::string& name = medium.name();
  if (babblers_.count(name) > 0) return;
  const double rate = std::max(frames_per_ms, 0.1);
  const sim::Duration period = std::max<sim::Duration>(
      static_cast<sim::Duration>(static_cast<double>(sim::kMillisecond) /
                                 rate),
      1);
  net::Medium* target = &medium;
  const std::size_t size = std::min<std::size_t>(target->max_payload(), 64);
  babblers_[name].timer = sim_.schedule_every(
      sim_.now() + period, period, [target, size] {
        // A babbling idiot floods at top priority: on CAN this starves
        // arbitration, on switched media it fills the high-priority queue.
        net::Frame frame;
        frame.flow_id = 0;
        frame.src = kBabblerNode;
        frame.dst = net::kBroadcast;
        frame.priority = net::kPriorityHighest;
        frame.payload.assign(size, 0xAA);
        target->send(std::move(frame));
      });
}

void FaultCampaign::stop_babble(const std::string& medium_name) {
  auto it = babblers_.find(medium_name);
  if (it == babblers_.end()) return;
  sim_.cancel(it->second.timer);
  babblers_.erase(it);
}

std::uint64_t FaultCampaign::fingerprint() const {
  using obs::fnv1a;
  std::uint64_t hash = obs::kFingerprintOffset;
  for (const FaultEvent& event : injected_) {
    hash = fnv1a(hash, &event.at, sizeof(event.at));
    const auto kind = static_cast<std::uint8_t>(event.kind);
    hash = fnv1a(hash, &kind, sizeof(kind));
    hash = fnv1a(hash, event.target);
    hash = fnv1a(hash, &event.magnitude, sizeof(event.magnitude));
    for (const net::NodeId node : event.island) {
      hash = fnv1a(hash, &node, sizeof(node));
    }
  }
  return hash;
}

std::size_t FaultCampaign::injected_count(FaultKind kind) const {
  std::size_t count = 0;
  for (const FaultEvent& event : injected_) {
    if (event.kind == kind) ++count;
  }
  return count;
}

}  // namespace dynaplat::fault
