#include "fault/minimize.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "obs/json.hpp"

namespace dynaplat::fault {

namespace {

// Magnitude bisection steps per surviving event.
constexpr int kMagnitudeSteps = 4;

/// An episode is the atom of minimization: a Start event with its matching
/// End (same target, paired kind, first later occurrence), or a lone event.
struct Episode {
  std::vector<FaultEvent> events;
};

std::vector<Episode> group_episodes(const std::vector<FaultEvent>& plan) {
  std::vector<FaultEvent> sorted = plan;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  std::vector<Episode> episodes;
  // (end-kind, target) -> episode index awaiting that End.
  std::map<std::pair<int, std::string>, std::size_t> open;
  for (const FaultEvent& event : sorted) {
    const auto key =
        std::make_pair(static_cast<int>(event.kind), event.target);
    auto it = open.find(key);
    if (it != open.end()) {
      episodes[it->second].events.push_back(event);
      open.erase(it);
      continue;
    }
    episodes.push_back({{event}});
    FaultKind end_kind;
    if (fault_kind_end_of(event.kind, &end_kind)) {
      open[{static_cast<int>(end_kind), event.target}] = episodes.size() - 1;
    }
  }
  return episodes;
}

std::vector<FaultEvent> flatten(const std::vector<Episode>& episodes) {
  std::vector<FaultEvent> plan;
  for (const Episode& episode : episodes) {
    plan.insert(plan.end(), episode.events.begin(), episode.events.end());
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

}  // namespace

Minimizer::Minimizer(MinimizeConfig config, PlanRunner runner)
    : config_(config), runner_(std::move(runner)) {}

bool Minimizer::fails(const std::vector<FaultEvent>& plan,
                      sim::Duration horizon, const std::string& target,
                      std::string* detail) {
  if (runs_ >= config_.max_runs) return false;  // budget-exhausted = "pass"
  ++runs_;
  const ProbeVerdict verdict = runner_(plan, horizon);
  if (!verdict.violated) return false;
  if (!target.empty() && verdict.invariant != target) return false;
  if (detail != nullptr) *detail = verdict.detail;
  return true;
}

Repro Minimizer::minimize(std::vector<FaultEvent> plan, sim::Duration horizon,
                          std::string target_invariant) {
  runs_ = 0;
  Repro repro;
  repro.original_events = plan.size();
  repro.horizon = horizon;

  // Pin the target: the repro must trip the *same* invariant as the input.
  {
    ++runs_;
    const ProbeVerdict verdict = runner_(plan, horizon);
    if (!verdict.violated ||
        (!target_invariant.empty() &&
         verdict.invariant != target_invariant)) {
      repro.runs_used = runs_;
      return repro;  // nothing (matching) to minimize
    }
    if (target_invariant.empty()) target_invariant = verdict.invariant;
    repro.invariant = target_invariant;
    repro.detail = verdict.detail;
  }
  repro.failing = true;

  // --- Pass 1: ddmin over episodes -----------------------------------------
  std::vector<Episode> episodes = group_episodes(plan);
  std::size_t granularity = 2;
  while (episodes.size() >= 2 && runs_ < config_.max_runs) {
    const std::size_t n = std::min(granularity, episodes.size());
    const std::size_t chunk = (episodes.size() + n - 1) / n;
    bool reduced = false;
    // Try each chunk alone ("can this slice reproduce it by itself?").
    for (std::size_t c = 0; c * chunk < episodes.size() && !reduced; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(lo + chunk, episodes.size());
      if (hi - lo == episodes.size()) continue;
      std::vector<Episode> subset(episodes.begin() + lo,
                                  episodes.begin() + hi);
      std::string detail;
      if (fails(flatten(subset), horizon, target_invariant, &detail)) {
        episodes = std::move(subset);
        repro.detail = detail;
        granularity = 2;
        reduced = true;
      }
    }
    // Then each complement ("is this slice irrelevant?").
    for (std::size_t c = 0; c * chunk < episodes.size() && !reduced; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(lo + chunk, episodes.size());
      if (hi - lo == episodes.size()) continue;
      std::vector<Episode> rest(episodes.begin(), episodes.begin() + lo);
      rest.insert(rest.end(), episodes.begin() + hi, episodes.end());
      std::string detail;
      if (fails(flatten(rest), horizon, target_invariant, &detail)) {
        episodes = std::move(rest);
        repro.detail = detail;
        granularity = std::max<std::size_t>(granularity - 1, 2);
        reduced = true;
      }
    }
    if (!reduced) {
      if (granularity >= episodes.size()) break;  // 1-minimal
      granularity = std::min(granularity * 2, episodes.size());
    }
  }
  repro.plan = flatten(episodes);

  // --- Pass 2: horizon bisection --------------------------------------------
  // The violation may need slack after the last event (failover detection,
  // TTL sweeps), so bisect between the last event time and the original
  // horizon rather than assuming either bound.
  sim::Time last_event = 0;
  for (const FaultEvent& event : repro.plan) {
    last_event = std::max(last_event, event.at);
  }
  sim::Duration lo = last_event;  // known insufficient (events still firing)
  sim::Duration hi = horizon;    // known failing
  while (hi - lo > kHorizonResolution && runs_ < config_.max_runs) {
    const sim::Duration mid = lo + (hi - lo) / 2;
    std::string detail;
    if (fails(repro.plan, mid, target_invariant, &detail)) {
      hi = mid;
      repro.detail = detail;
    } else {
      lo = mid;
    }
  }
  repro.horizon = hi;

  // --- Pass 3: magnitude bisection ------------------------------------------
  for (std::size_t i = 0;
       i < repro.plan.size() && runs_ < config_.max_runs; ++i) {
    if (repro.plan[i].magnitude <= 0.0) continue;
    double mag_lo = 0.0;
    double mag_hi = repro.plan[i].magnitude;  // known failing
    for (int step = 0; step < kMagnitudeSteps && runs_ < config_.max_runs;
         ++step) {
      const double mid = (mag_lo + mag_hi) / 2.0;
      std::vector<FaultEvent> probe = repro.plan;
      probe[i].magnitude = mid;
      std::string detail;
      if (fails(probe, repro.horizon, target_invariant, &detail)) {
        mag_hi = mid;
        repro.detail = detail;
      } else {
        mag_lo = mid;
      }
    }
    repro.plan[i].magnitude = mag_hi;
  }

  repro.runs_used = runs_;
  return repro;
}

std::string repro_json(const Repro& repro) {
  obs::json::Writer out;
  out.begin_object()
      .member("kind", "dynaplat_fault_repro")
      .member("failing", repro.failing)
      .member("invariant", repro.invariant)
      .member("detail", repro.detail)
      .member("seed", hex_u64(repro.seed))
      .member("horizon_ns", repro.horizon)
      .member("original_events", repro.original_events)
      .member("runs_used", repro.runs_used);
  out.key("events").begin_array();
  for (const FaultEvent& event : repro.plan) {
    out.begin_object()
        .member("at_ns", event.at)
        .member("kind", to_string(event.kind))
        .member("target", event.target)
        .member("magnitude", event.magnitude);
    if (!event.island.empty()) {
      out.key("island").begin_array();
      for (const net::NodeId node : event.island) out.value(node);
      out.end_array();
    }
    out.end_object();
  }
  out.end_array().end_object();
  return out.take();
}

bool write_repro_file(const Repro& repro, const std::string& path) {
  return obs::json::write_file(path, repro_json(repro));
}

bool load_repro(std::string_view json_text, Repro* out) {
  obs::json::Value doc;
  if (!obs::json::parse(json_text, &doc) || !doc.is_object()) return false;
  if (doc.at("kind").string != "dynaplat_fault_repro") return false;
  Repro repro;
  repro.failing = doc.at("failing").boolean;
  repro.invariant = doc.at("invariant").string;
  repro.detail = doc.at("detail").string;
  repro.seed = std::strtoull(doc.at("seed").string.c_str(), nullptr, 16);
  if (!doc.at("horizon_ns").to_integer(&repro.horizon) ||
      !doc.at("original_events").to_integer(&repro.original_events) ||
      !doc.at("runs_used").to_integer(&repro.runs_used)) {
    return false;
  }
  const obs::json::Value& events = doc.at("events");
  if (!events.is_array()) return false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::json::Value& entry = events[i];
    FaultEvent event;
    if (!entry.at("at_ns").to_integer(&event.at) ||
        !fault_kind_from_string(entry.at("kind").string, &event.kind)) {
      return false;
    }
    event.target = entry.at("target").string;
    event.magnitude = entry.at("magnitude").number;
    const obs::json::Value& island = entry.at("island");
    for (std::size_t j = 0; j < island.size(); ++j) {
      net::NodeId node = 0;
      if (!island[j].to_integer(&node)) return false;
      event.island.insert(node);
    }
    repro.plan.push_back(std::move(event));
  }
  *out = std::move(repro);
  return true;
}

}  // namespace dynaplat::fault
