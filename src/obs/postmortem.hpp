// Post-mortem flight-recorder bundle: one JSON document capturing everything
// the off-vehicle backend needs to reproduce and triage an invariant
// violation (paper Sec. 3.4) — the tail of the trace ring, the full metrics
// snapshot, the coverage snapshot, and the offending scenario seed.
//
// fault::InvariantChecker dumps a bundle on the *first* violation of a run
// (later violations are usually cascade noise from the same root cause);
// examples/chaos_campaign prints the bundle path so CI can attach it.
#pragma once

#include <cstdint>
#include <string>

#include "obs/coverage.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dynaplat::obs {

struct PostMortemInput {
  const TraceBuffer* trace = nullptr;      // optional
  const MetricsRegistry* metrics = nullptr;  // optional
  const CoverageMap* coverage = nullptr;   // optional
  std::uint64_t seed = 0;                  // scenario seed to replay
  std::string verdict;                     // e.g. the violated invariant name
  std::string detail;                      // human-readable failure detail
  std::size_t trace_tail = 256;            // newest events to include
};

/// Renders the bundle as a JSON document (parseable by obs::json).
std::string make_postmortem_bundle(const PostMortemInput& input);

/// Writes the bundle to `path`; returns false if the file cannot be
/// opened, written or closed.
bool write_postmortem_file(const PostMortemInput& input,
                           const std::string& path);

}  // namespace dynaplat::obs
