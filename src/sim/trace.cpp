#include "sim/trace.hpp"

namespace dynaplat::sim {

void Trace::record(Time at, TraceCategory cat, std::string_view source,
                   std::string_view event, std::int64_t value,
                   obs::EventType type) {
  if (!buffer_.enabled(cat)) return;
  buffer_.record(at, cat, source, event, value, type);
}

TraceRecord Trace::materialize(const obs::Event& event) const {
  return TraceRecord{event.at, event.category, buffer_.name_of(event.source),
                     buffer_.name_of(event.name), event.value};
}

std::vector<TraceRecord> Trace::tail(std::size_t n) const {
  const std::size_t total = buffer_.size();
  const std::size_t skip = total > n ? total - n : 0;
  std::vector<TraceRecord> out;
  out.reserve(total - skip);
  std::size_t i = 0;
  buffer_.for_each([&](const obs::Event& event) {
    if (i++ >= skip) out.push_back(materialize(event));
  });
  return out;
}

void Trace::refresh_self_metrics() {
  metrics_.gauge("obs.trace.retained")
      .set(static_cast<double>(buffer_.size()));
  metrics_.gauge("obs.trace.dropped")
      .set(static_cast<double>(buffer_.dropped()));
  metrics_.gauge("obs.trace.recorded")
      .set(static_cast<double>(buffer_.recorded()));
  metrics_.gauge("obs.interner.size")
      .set(static_cast<double>(buffer_.interner().size()));
  metrics_.gauge("obs.coverage.keys")
      .set(static_cast<double>(coverage_.size()));
}

}  // namespace dynaplat::sim
