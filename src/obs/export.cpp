#include "obs/export.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace dynaplat::obs {

namespace {

double to_us(sim::Time at) { return static_cast<double>(at) / 1000.0; }

struct OutEvent {
  sim::Time at = 0;
  sim::Duration dur = 0;
  char phase = 'i';  // 'X', 'i', 'C'
  int pid = 0;
  int tid = 0;
  std::uint32_t name = 0;
  Category category = Category::kTask;
  std::int64_t value = 0;
};

struct Lanes {
  // pid/tid assignment in first-seen order, both 1-based (pid 0 is reserved
  // by the trace-event format for the browser process).
  std::map<std::string, int> pids;
  std::vector<std::string> pid_names;
  std::map<std::pair<int, std::string>, int> tids;
  std::vector<std::pair<int, std::string>> tid_names;  // (pid, thread name)
  std::vector<int> tids_per_pid;

  std::pair<int, int> lane_for(const std::string& source) {
    const std::size_t slash = source.find('/');
    const std::string process =
        slash == std::string::npos ? source : source.substr(0, slash);
    auto pid_it = pids.find(process);
    if (pid_it == pids.end()) {
      pid_it = pids.emplace(process, static_cast<int>(pids.size()) + 1).first;
      pid_names.push_back(process);
      tids_per_pid.push_back(0);
    }
    const int pid = pid_it->second;
    const auto key = std::make_pair(pid, source);
    auto tid_it = tids.find(key);
    if (tid_it == tids.end()) {
      const int tid = ++tids_per_pid[static_cast<std::size_t>(pid) - 1];
      tid_it = tids.emplace(key, tid).first;
      tid_names.emplace_back(pid, source);
    }
    return {pid, tid_it->second};
  }
};

}  // namespace

std::string to_chrome_trace_json(const TraceBuffer& buffer) {
  std::vector<Event> events = buffer.snapshot();
  // Instrumentation may record spans with explicit timestamps out of
  // arrival order (e.g. a bus schedules begin+end together); sort by time,
  // keeping arrival order for ties so begin precedes its own end.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });

  Lanes lanes;
  std::vector<OutEvent> out;
  out.reserve(events.size());
  // Open spans per (lane source, span name): innermost-first stack of begin
  // events. Ends without a matching begin (the begin half was evicted from
  // the ring) are dropped; so are begins that never close.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Event>> open;

  for (const Event& event : events) {
    const std::string& source = buffer.name_of(event.source);
    const auto [pid, tid] = lanes.lane_for(source);
    switch (event.type) {
      case EventType::kBegin:
        open[{event.source, event.name}].push_back(event);
        break;
      case EventType::kEnd: {
        auto it = open.find({event.source, event.name});
        if (it == open.end() || it->second.empty()) break;  // orphaned end
        const Event begin = it->second.back();
        it->second.pop_back();
        OutEvent span;
        span.phase = 'X';
        span.at = begin.at;
        span.dur = event.at - begin.at;
        span.pid = pid;
        span.tid = tid;
        span.name = begin.name;
        span.category = begin.category;
        span.value = begin.value != 0 ? begin.value : event.value;
        out.push_back(span);
        break;
      }
      case EventType::kInstant:
      case EventType::kCounter:
      case EventType::kFlowStart:
      case EventType::kFlowStep:
      case EventType::kFlowEnd: {
        OutEvent point;
        switch (event.type) {
          case EventType::kCounter:
            point.phase = 'C';
            break;
          case EventType::kFlowStart:
            point.phase = 's';
            break;
          case EventType::kFlowStep:
            point.phase = 't';
            break;
          case EventType::kFlowEnd:
            point.phase = 'f';
            break;
          default:
            point.phase = 'i';
            break;
        }
        point.at = event.at;
        point.pid = pid;
        point.tid = tid;
        point.name = event.name;
        point.category = event.category;
        point.value = event.value;
        out.push_back(point);
        break;
      }
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const OutEvent& a, const OutEvent& b) {
                     return a.at < b.at;
                   });

  json::Writer doc;
  doc.begin_object().key("traceEvents").begin_array();
  const auto lane_name = [&doc](const char* kind, int pid, int tid,
                                const std::string& name) {
    doc.begin_object()
        .member("name", kind)
        .member("ph", "M")
        .member("pid", pid)
        .member("tid", tid);
    doc.key("args").begin_object().member("name", name).end_object();
    doc.end_object();
  };
  for (std::size_t i = 0; i < lanes.pid_names.size(); ++i) {
    lane_name("process_name", static_cast<int>(i) + 1, 0, lanes.pid_names[i]);
  }
  for (const auto& [pid, thread] : lanes.tid_names) {
    lane_name("thread_name", pid, lanes.tids.at({pid, thread}), thread);
  }

  for (const OutEvent& event : out) {
    const std::string& name = buffer.name_of(event.name);
    doc.begin_object()
        .member("name", name)
        .member("cat", category_name(event.category))
        .member("ph", std::string_view(&event.phase, 1))
        .member("ts", to_us(event.at));
    if (event.phase == 'X') doc.member("dur", to_us(event.dur));
    doc.member("pid", event.pid).member("tid", event.tid);
    if (event.phase == 'i') doc.member("s", "t");
    if (event.phase == 's' || event.phase == 't' || event.phase == 'f') {
      // Flow events bind by id; the terminal one binds to the enclosing
      // slice ("bp":"e") so the arrow lands on the dispatch span.
      doc.member("id", event.value);
      if (event.phase == 'f') doc.member("bp", "e");
      doc.key("args").begin_object().end_object();
    } else {
      doc.key("args").begin_object();
      doc.member(event.phase == 'C' ? std::string_view(name) : "value",
                 event.value);
      doc.end_object();
    }
    doc.end_object();
  }

  doc.end_array().member("displayTimeUnit", "ms").end_object();
  return doc.take();
}

bool write_chrome_trace_file(const TraceBuffer& buffer,
                             const std::string& path) {
  return json::write_file(path, to_chrome_trace_json(buffer));
}

}  // namespace dynaplat::obs
