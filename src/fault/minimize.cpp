#include "fault/minimize.hpp"

#include <algorithm>
#include <cstdio>
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
  std::string out = "{\n  \"kind\": \"dynaplat_fault_repro\",\n";
  char buf[64];
  auto field_u64 = [&](const char* name, std::uint64_t value, bool comma) {
    std::snprintf(buf, sizeof buf, "  \"%s\": %llu%s\n", name,
                  static_cast<unsigned long long>(value), comma ? "," : "");
    out += buf;
  };
  out += "  \"failing\": ";
  out += repro.failing ? "true,\n" : "false,\n";
  out += "  \"invariant\": \"" + obs::json::escape(repro.invariant) + "\",\n";
  out += "  \"detail\": \"" + obs::json::escape(repro.detail) + "\",\n";
  // Hex string: a full-range 64-bit seed does not survive a double
  // round-trip through the JSON number path.
  std::snprintf(buf, sizeof buf, "  \"seed\": \"%016llx\",\n",
                static_cast<unsigned long long>(repro.seed));
  out += buf;
  field_u64("horizon_ns", static_cast<std::uint64_t>(repro.horizon), true);
  field_u64("original_events", repro.original_events, true);
  field_u64("runs_used", repro.runs_used, true);
  out += "  \"events\": [";
  for (std::size_t i = 0; i < repro.plan.size(); ++i) {
    const FaultEvent& event = repro.plan[i];
    out += i == 0 ? "\n" : ",\n";
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(event.at));
    out += "    {\"at_ns\": ";
    out += buf;
    out += ", \"kind\": \"";
    out += to_string(event.kind);
    out += "\", \"target\": \"" + obs::json::escape(event.target) + "\"";
    std::snprintf(buf, sizeof buf, "%.17g", event.magnitude);
    out += ", \"magnitude\": ";
    out += buf;
    if (!event.island.empty()) {
      out += ", \"island\": [";
      bool first = true;
      for (const net::NodeId node : event.island) {
        if (!first) out += ", ";
        first = false;
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(node));
        out += buf;
      }
      out += "]";
    }
    out += "}";
  }
  out += repro.plan.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool write_repro_file(const Repro& repro, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = repro_json(repro);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
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
  repro.horizon = static_cast<sim::Duration>(doc.at("horizon_ns").number);
  repro.original_events =
      static_cast<std::size_t>(doc.at("original_events").number);
  repro.runs_used = static_cast<std::size_t>(doc.at("runs_used").number);
  const obs::json::Value& events = doc.at("events");
  if (!events.is_array()) return false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::json::Value& entry = events[i];
    FaultEvent event;
    event.at = static_cast<sim::Time>(entry.at("at_ns").number);
    if (!fault_kind_from_string(entry.at("kind").string, &event.kind)) {
      return false;
    }
    event.target = entry.at("target").string;
    event.magnitude = entry.at("magnitude").number;
    const obs::json::Value& island = entry.at("island");
    for (std::size_t j = 0; j < island.size(); ++j) {
      event.island.insert(static_cast<net::NodeId>(island[j].number));
    }
    repro.plan.push_back(std::move(event));
  }
  *out = std::move(repro);
  return true;
}

}  // namespace dynaplat::fault
