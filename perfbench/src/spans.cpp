#include "spans.hpp"

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::spans {

std::atomic<bool> g_enabled{false};

namespace {

/// Raw spans kept across all threads; beyond this only the aggregates
/// grow.
constexpr std::uint64_t kRawCap = 1 << 16;
std::atomic<std::uint64_t> g_raw_kept{0};
constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

const Clock::time_point g_epoch = Clock::now();

std::int64_t ns_since_epoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

struct RawSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;  ///< index into the same thread's spans
  Kind kind = kCount;
};

struct Open {
  Kind kind = kCount;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
  std::uint32_t raw = kNoParent;
};

struct Recorder {
  std::uint32_t thread = 0;
  std::vector<Open> stack;
  std::array<Aggregate, kCount> kinds{};
  double top_level_s = 0.0;
  std::vector<RawSpan> raw;
  std::uint64_t dropped = 0;
};

std::mutex g_mutex;
std::vector<std::unique_ptr<Recorder>> g_recorders;  // guarded by g_mutex
thread_local Recorder* t_recorder = nullptr;

Recorder& recorder() {
  if (t_recorder == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_recorders.push_back(std::make_unique<Recorder>());
    t_recorder = g_recorders.back().get();
    t_recorder->thread = static_cast<std::uint32_t>(g_recorders.size() - 1);
    t_recorder->raw.reserve(1024);
  }
  return *t_recorder;
}

std::uint32_t keep_raw(Recorder& rec, Kind kind, std::int64_t start_ns) {
  if (g_raw_kept.load(std::memory_order_relaxed) >= kRawCap ||
      g_raw_kept.fetch_add(1, std::memory_order_relaxed) >= kRawCap) {
    ++rec.dropped;
    return kNoParent;
  }
  RawSpan span;
  span.kind = kind;
  span.start_ns = start_ns;
  span.parent = rec.stack.empty() ? kNoParent : rec.stack.back().raw;
  rec.raw.push_back(span);
  return static_cast<std::uint32_t>(rec.raw.size() - 1);
}

void close(Recorder& rec, Kind kind, std::int64_t duration_ns,
           std::int64_t child_ns) {
  Aggregate& agg = rec.kinds[kind];
  ++agg.count;
  agg.total_s += static_cast<double>(duration_ns) * 1e-9;
  agg.self_s += static_cast<double>(duration_ns - child_ns) * 1e-9;
  if (rec.stack.empty()) {
    rec.top_level_s += static_cast<double>(duration_ns) * 1e-9;
  } else {
    rec.stack.back().child_ns += duration_ns;
  }
}

}  // namespace

const char* name(Kind kind) {
  switch (kind) {
    case kModelParse: return "model.parse";
    case kModelVerify: return "model.verify";
    case kPlatformInstall: return "platform.install";
    case kSimRun: return "sim.run";
    case kFleetSetup: return "backend.fleet_setup";
    case kAppCallback: return "app.callback";
    case kMiddlewareSend: return "middleware.send";
    case kSweepRun: return "sweep.run";
    case kScenario: return "scenario";
    case kScenarioSetup: return "scenario.setup";
    case kScenarioRun: return "scenario.run";
    case kScenarioCheck: return "scenario.check";
    case kCheck: return "bench.check";
    case kCount: break;
  }
  return "?";
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void begin(Kind kind) {
  Recorder& rec = recorder();
  const std::int64_t now = ns_since_epoch(Clock::now());
  Open open;
  open.kind = kind;
  open.start_ns = now;
  open.raw = keep_raw(rec, kind, now);
  rec.stack.push_back(open);
}

void end() {
  const std::int64_t now = ns_since_epoch(Clock::now());
  Recorder& rec = recorder();
  if (rec.stack.empty()) return;
  const Open open = rec.stack.back();
  rec.stack.pop_back();
  if (open.raw != kNoParent) rec.raw[open.raw].end_ns = now;
  close(rec, open.kind, now - open.start_ns, open.child_ns);
}

void record(Kind kind, Clock::time_point start, Clock::time_point finish) {
  if (!enabled()) return;
  Recorder& rec = recorder();
  const std::int64_t start_ns = ns_since_epoch(start);
  const std::uint32_t raw = keep_raw(rec, kind, start_ns);
  const std::int64_t end_ns = ns_since_epoch(finish);
  if (raw != kNoParent) rec.raw[raw].end_ns = end_ns;
  close(rec, kind, end_ns - start_ns, 0);
}

Totals totals() {
  Totals out;
  Recorder* self = t_recorder;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& rec : g_recorders) {
    for (std::size_t k = 0; k < kCount; ++k) {
      out.kinds[k].count += rec->kinds[k].count;
      out.kinds[k].total_s += rec->kinds[k].total_s;
      out.kinds[k].self_s += rec->kinds[k].self_s;
    }
    out.kept += rec->raw.size();
    out.dropped += rec->dropped;
    if (rec.get() == self) out.caller_top_level_s = rec->top_level_s;
  }
  return out;
}

bool write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Totals sums = totals();
  std::fprintf(f, "{\n  \"kinds\": {");
  for (std::size_t k = 0; k < kCount; ++k) {
    std::fprintf(f,
                 "%s\n    \"%s\": {\"count\": %llu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}",
                 k == 0 ? "" : ",", name(static_cast<Kind>(k)),
                 static_cast<unsigned long long>(sums.kinds[k].count),
                 sums.kinds[k].total_s, sums.kinds[k].self_s);
  }
  std::fprintf(f, "\n  },\n  \"dropped\": %llu,\n  \"spans\": [",
               static_cast<unsigned long long>(sums.dropped));
  bool first = true;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& rec : g_recorders) {
    for (std::size_t i = 0; i < rec->raw.size(); ++i) {
      const RawSpan& s = rec->raw[i];
      char parent[32] = "null";
      if (s.parent != kNoParent) {
        std::snprintf(parent, sizeof parent, "\"%u.%u\"", rec->thread,
                      s.parent);
      }
      std::fprintf(f,
                   "%s\n    {\"id\": \"%u.%zu\", \"parent\": %s, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                   first ? "" : ",", rec->thread, i, parent, name(s.kind),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench::spans
