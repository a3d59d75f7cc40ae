// Host-time spans recorded by the benchmark around its calls into the
// library's layers.
//
// Spans live in memory, one recorder per thread, and are written out when
// the run ends. Each span kind accumulates its count, total time and self
// time (its duration minus the part covered by child spans on the same
// thread). Tracing is off unless the run asks for it; a disabled Scope
// costs one relaxed atomic load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench::spans {

enum Kind : std::uint8_t {
  kModelParse,       ///< model::parse_system
  kModelVerify,      ///< model::Verifier::verify
  kPlatformInstall,  ///< DynamicPlatform construction + install_all
  kSimRun,           ///< Simulator::run_until / FleetDriver::run (kernel loop)
  kFleetSetup,       ///< FleetDriver::run until its first simulated event
  kAppCallback,      ///< the benchmark's own application code
  kMiddlewareSend,   ///< ServiceRuntime publish / call / stream_send
  kSweepRun,         ///< ScenarioSweep::run
  kScenario,         ///< one sweep job
  kScenarioSetup,    ///< rig build inside a job
  kScenarioRun,      ///< campaign arm + run_until inside a job
  kScenarioCheck,    ///< InvariantChecker::run + fingerprinting inside a job
  kCheck,            ///< end-of-unit checks and fingerprints
  kCount
};

const char* name(Kind kind);

struct Aggregate {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct Totals {
  std::array<Aggregate, kCount> kinds{};
  /// Time covered by top-level spans of the calling thread.
  double caller_top_level_s = 0.0;
  /// Raw spans kept / dropped beyond the in-memory cap.
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;
};

extern std::atomic<bool> g_enabled;

inline bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on);

void begin(Kind kind);
void end();
/// Records an already-finished span as a child of the calling thread's
/// innermost open span.
void record(Kind kind, Clock::time_point start, Clock::time_point finish);

class Scope {
 public:
  explicit Scope(Kind kind) : active_(enabled()) {
    if (active_) begin(kind);
  }
  ~Scope() {
    if (active_) end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

/// Sums every thread's recorder. caller_top_level_s is the calling
/// thread's own.
Totals totals();

/// Writes the kept raw spans plus the per-kind totals as JSON. Returns
/// false when the file cannot be written.
bool write_json(const std::string& path);

}  // namespace perfbench::spans
