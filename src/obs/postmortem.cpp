#include "obs/postmortem.hpp"

#include "obs/json.hpp"

namespace dynaplat::obs {

std::string make_postmortem_bundle(const PostMortemInput& input) {
  json::Writer out;
  out.begin_object().key("postmortem").begin_object();
  out.member("seed", input.seed)
      .member("verdict", input.verdict)
      .member("detail", input.detail);

  if (input.trace != nullptr) {
    const TraceBuffer& trace = *input.trace;
    out.member("trace_dropped", trace.dropped())
        .member("trace_recorded", trace.recorded());
    out.key("trace_tail").begin_array();
    // Keep only the newest `trace_tail` retained events, oldest first.
    const std::size_t skip =
        trace.size() > input.trace_tail ? trace.size() - input.trace_tail : 0;
    std::size_t index = 0;
    trace.for_each([&](const Event& event) {
      if (index++ < skip) return;
      out.begin_object()
          .member("at", event.at)
          .member("source", trace.name_of(event.source))
          .member("name", trace.name_of(event.name))
          .member("value", event.value)
          .member("category", category_name(event.category))
          .member("type", event_type_name(event.type))
          .end_object();
    });
    out.end_array();
  }

  if (input.metrics != nullptr) input.metrics->write_json(out.key("metrics"));
  if (input.coverage != nullptr) {
    input.coverage->write_json(out.key("coverage"));
  }
  out.end_object().end_object();
  return out.take();
}

bool write_postmortem_file(const PostMortemInput& input,
                           const std::string& path) {
  return json::write_file(path, make_postmortem_bundle(input));
}

}  // namespace dynaplat::obs
