// Observability layer tests: interner, bounded trace ring, category masks,
// metrics registry (incl. concurrent updates), the minimal JSON
// parser, and the Chrome trace-event exporter — ending with the acceptance
// round-trip: a full platform run with a staged update exported and parsed
// back, checking lane mapping and span nesting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "middleware/payload.hpp"
#include "model/parser.hpp"
#include "obs/coverage.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"
#include "platform/update.hpp"
#include "platform/vehicle.hpp"

namespace dynaplat {
namespace {

using obs::Category;
using obs::EventType;

// --- Interner --------------------------------------------------------------

TEST(ObsInterner, SameStringSameId) {
  obs::Interner interner;
  const auto a = interner.intern("brake_ctl");
  const auto b = interner.intern("camera");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, interner.intern("brake_ctl"));
  EXPECT_EQ(interner.lookup(a), "brake_ctl");
  EXPECT_EQ(interner.lookup(b), "camera");
}

TEST(ObsInterner, SlotZeroIsReservedEmpty) {
  obs::Interner interner;
  EXPECT_EQ(interner.lookup(0), "");
  EXPECT_NE(interner.intern("x"), 0u);
  EXPECT_EQ(interner.find("never_interned"), 0u);
  EXPECT_EQ(interner.find("x"), interner.intern("x"));
}

// --- TraceBuffer ------------------------------------------------------------

TEST(ObsTraceBuffer, RingBoundEvictsOldestAndCounts) {
  obs::TraceBuffer buffer({.capacity = 4});
  const auto src = buffer.intern("ecu/app");
  const auto name = buffer.intern("tick");
  for (int i = 0; i < 10; ++i) {
    buffer.record(i, Category::kTask, src, name, i);
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.recorded(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);
  const auto events = buffer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].value, 6 + i);  // oldest-first, newest 4 retained
  }
}

TEST(ObsTraceBuffer, CategoryMaskFiltersRecords) {
  obs::TraceBuffer buffer;
  buffer.set_category_enabled(Category::kNetwork, false);
  EXPECT_TRUE(buffer.enabled());
  EXPECT_FALSE(buffer.enabled(Category::kNetwork));
  buffer.record(1, Category::kNetwork, "bus", "tx");
  buffer.record(2, Category::kTask, "cpu", "run");
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.recorded(), 1u);

  buffer.set_enabled(false);
  EXPECT_FALSE(buffer.enabled());
  buffer.record(3, Category::kTask, "cpu", "run");
  EXPECT_EQ(buffer.size(), 1u);

  // Re-enabling restores the pre-disable mask (network still off).
  buffer.set_enabled(true);
  EXPECT_TRUE(buffer.enabled(Category::kTask));
  EXPECT_FALSE(buffer.enabled(Category::kNetwork));
}

TEST(ObsTraceBuffer, ShrinkingCapacityKeepsNewest) {
  obs::TraceBuffer buffer;
  const auto src = buffer.intern("s");
  const auto name = buffer.intern("e");
  for (int i = 0; i < 8; ++i) {
    buffer.record(i, Category::kTask, src, name, i);
  }
  buffer.set_capacity(3);
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.dropped(), 5u);
  const auto events = buffer.snapshot();
  EXPECT_EQ(events.front().value, 5);
  EXPECT_EQ(events.back().value, 7);
}

TEST(ObsTraceBuffer, SpanRecordsAndCount) {
  obs::TraceBuffer buffer;
  const auto src = buffer.intern("ecu/app");
  const auto run = buffer.intern("run");
  buffer.begin_span(10, Category::kTask, src, run);
  buffer.end_span(30, Category::kTask, src, run);
  buffer.record(40, Category::kTask, src, buffer.intern("done"));
  EXPECT_EQ(buffer.count(Category::kTask, "run"), 2u);
  EXPECT_EQ(buffer.count(Category::kTask, "done"), 1u);
  EXPECT_EQ(buffer.count(Category::kNetwork, "run"), 0u);
  const auto events = buffer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, EventType::kBegin);
  EXPECT_EQ(events[1].type, EventType::kEnd);
}

// --- Metrics ----------------------------------------------------------------

TEST(ObsMetrics, CounterGaugeBasics) {
  obs::MetricsRegistry registry;
  auto& frames = registry.counter("net.frames");
  frames.add();
  frames.add(9);
  EXPECT_EQ(frames.value(), 10u);
  EXPECT_EQ(&frames, &registry.counter("net.frames"));

  auto& util = registry.gauge("net.util");
  util.set(0.25);
  util.add(0.5);
  EXPECT_DOUBLE_EQ(util.value(), 0.75);
  EXPECT_EQ(registry.counter_count(), 1u);
  EXPECT_EQ(registry.gauge_count(), 1u);
}

TEST(ObsMetrics, HistogramBucketsAndOverflow) {
  using obs::Histogram;
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("lat");
  EXPECT_EQ(h.count_at(0), 0u);  // no storage before the first observe
  h.observe(5.0);
  h.observe(5.2);    // same 1/16-octave bucket as 5.0: [5, 5.25)
  h.observe(5.25);   // next bucket
  h.observe(1e9);
  h.observe(1e30);   // past 2^64: overflow
  h.observe(0.0);    // zero, negatives and NaN: underflow
  h.observe(-3.0);
  h.observe(std::nan(""));
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.count_at(Histogram::bucket_of(5.0)), 2u);
  EXPECT_EQ(Histogram::bucket_lower(Histogram::bucket_of(5.0)), 5.0);
  EXPECT_EQ(Histogram::bucket_upper(Histogram::bucket_of(5.0)), 5.25);
  EXPECT_EQ(h.count_at(Histogram::bucket_of(5.25)), 1u);
  EXPECT_EQ(h.count_at(Histogram::bucket_of(1e9)), 1u);
  EXPECT_EQ(h.count_at(Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.count_at(0), 3u);
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kBuckets - 1)));
  EXPECT_EQ(Histogram::bucket_upper(0), std::ldexp(1.0, Histogram::kMinExp));
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e30);
  EXPECT_EQ(h.percentile(100), 1e30);  // overflow reports the max
  // Every in-window value lies inside its bucket; integers bucket by their
  // exact bits, so 2^k - 1 stays below 2^k even past 2^53.
  for (const double v : {0x1p-16, 0.001, 1.0, 3.0, 1e6, 0x1p63}) {
    const std::size_t i = Histogram::bucket_of(v);
    EXPECT_LE(Histogram::bucket_lower(i), v);
    EXPECT_LT(v, Histogram::bucket_upper(i));
  }
  for (int k = Histogram::kSubBits + 1; k < 63; ++k) {
    const std::int64_t edge = std::int64_t{1} << k;
    EXPECT_EQ(Histogram::bucket_of(edge),
              Histogram::bucket_of(std::ldexp(1.0, k)));
    EXPECT_EQ(Histogram::bucket_of(edge - 1) + 1, Histogram::bucket_of(edge));
  }
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::int64_t>::max()),
            Histogram::bucket_of(0x1p63) - 1);
}

TEST(ObsMetrics, ConcurrentUpdatesFromThreads) {
  obs::MetricsRegistry registry;
  auto& counter = registry.counter("c");
  auto& gauge = registry.gauge("g");
  auto& histogram = registry.histogram("h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          counter.add();
          gauge.add(1.0);
          histogram.observe(i % 2 == 0 ? 0.0 : 1.0);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(gauge.value(), kThreads * kPerThread);
  // Every thread's first observe races to install the bucket array; one
  // install must win and no sample may land in a discarded array.
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  EXPECT_EQ(histogram.count_at(0), kThreads * kPerThread / 2);
  EXPECT_EQ(histogram.count_at(obs::Histogram::bucket_of(1.0)),
            kThreads * kPerThread / 2);
  EXPECT_EQ(histogram.sum(), kThreads * kPerThread / 2);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 1.0);
}

TEST(ObsMetrics, SnapshotJsonRoundTrips) {
  obs::MetricsRegistry registry;
  registry.counter("faults.total").add(3);
  registry.gauge("bus.util").set(0.5);
  registry.histogram("lat").observe(42.0);
  registry.histogram("big").observe(1e30);
  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(registry.snapshot_json(), &doc, &error))
      << error;
  EXPECT_DOUBLE_EQ(doc.at("counters").at("faults.total").number, 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("bus.util").number, 0.5);
  const auto& lat = doc.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(lat.at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(lat.at("sum").number, 42.0);
  // Only non-empty buckets are listed, each by its exclusive upper edge:
  // 42 lies in [42, 44).
  ASSERT_EQ(lat.at("buckets").size(), 1u);
  EXPECT_DOUBLE_EQ(lat.at("buckets")[0].at("lt").number, 44.0);
  EXPECT_DOUBLE_EQ(lat.at("buckets")[0].at("count").number, 1.0);
  const auto& big = doc.at("histograms").at("big");
  ASSERT_EQ(big.at("buckets").size(), 1u);
  EXPECT_EQ(big.at("buckets")[0].at("lt").string, "inf");
}

// --- JSON parser -------------------------------------------------------------

TEST(ObsJson, ParsesNestedDocuments) {
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(
      R"({"a": [1, -2.5, true, null, "x\n\"y\""], "b": {"c": 3e2}})", &doc));
  EXPECT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("a").size(), 5u);
  EXPECT_DOUBLE_EQ(doc.at("a")[1].number, -2.5);
  EXPECT_TRUE(doc.at("a")[2].boolean);
  EXPECT_TRUE(doc.at("a")[3].is_null());
  EXPECT_EQ(doc.at("a")[4].string, "x\n\"y\"");
  EXPECT_DOUBLE_EQ(doc.at("b").at("c").number, 300.0);
  // Missing-key chains degrade to null instead of throwing.
  EXPECT_TRUE(doc.at("missing").at("chain").is_null());
}

TEST(ObsJson, RejectsMalformedInput) {
  obs::json::Value doc;
  EXPECT_FALSE(obs::json::parse("{", &doc));
  EXPECT_FALSE(obs::json::parse("[1,]", &doc));
  EXPECT_FALSE(obs::json::parse("{} trailing", &doc));
  EXPECT_FALSE(obs::json::parse("'single'", &doc));
  // Nesting far past kMaxDepth is a parse error, not a stack overflow.
  EXPECT_FALSE(obs::json::parse(std::string(100'000, '['), &doc));
  // Numbers outside RFC 8259's grammar and \u escapes without four hex
  // digits.
  for (const char* text : {"+5", "01", "-01", ".5", "1.", "[1.]", "-", "1e",
                           "1e+", "0x10", "\"\\uZZZZ\"", "\"\\u12G4\"",
                           "\"\\u+123\"", "\"\\u 123\""}) {
    EXPECT_FALSE(obs::json::parse(text, &doc)) << text;
  }
}

TEST(ObsJson, ParsesRfc8259NumbersAndEscapes) {
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(
      "[0, -0, 10, 0.5, -1.5e+3, 1E-2, 2e300, \"\\u00e9\\u0041\"]", &doc));
  ASSERT_EQ(doc.array.size(), 8u);
  EXPECT_EQ(doc.array[0].number, 0.0);
  EXPECT_EQ(doc.array[1].number, 0.0);
  EXPECT_EQ(doc.array[2].number, 10.0);
  EXPECT_EQ(doc.array[3].number, 0.5);
  EXPECT_EQ(doc.array[4].number, -1500.0);
  EXPECT_EQ(doc.array[5].number, 0.01);
  EXPECT_EQ(doc.array[6].number, 2e300);
  EXPECT_EQ(doc.array[7].string, "\xC3\xA9" "A");
}

TEST(ObsJson, NestingLimitIsMaxDepth) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  obs::json::Value doc;
  std::string error;
  EXPECT_TRUE(obs::json::parse(nested(obs::json::kMaxDepth), &doc, &error))
      << error;
  EXPECT_FALSE(obs::json::parse(nested(obs::json::kMaxDepth + 1), &doc));
}

TEST(ObsJson, EscapeProducesParseableStrings) {
  const std::string nasty = "a\"b\\c\nd\te\x01";
  obs::json::Writer writer;
  writer.begin_object().member(nasty, nasty).end_object();
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(writer.take(), &doc));
  EXPECT_EQ(doc.at(nasty).string, nasty);
}

TEST(ObsJson, WriterLayoutAndNumbers) {
  obs::json::Writer writer;
  writer.begin_object()
      .member("u64", std::numeric_limits<std::uint64_t>::max())
      .member("i64", std::numeric_limits<std::int64_t>::min())
      .member("tenth", 0.1)
      .member("us", 7'040 / 1000.0)
      .member("inf", std::numeric_limits<double>::infinity())
      .member("text", "x");
  writer.key("rows").begin_array().value(1);
  writer.begin_object().member("ok", true).key("ids").begin_array();
  writer.end_array().end_object().end_array();
  writer.key("empty").begin_object().end_object();
  writer.key("none").null();
  writer.end_object();
  // Depth <= kLineDepth: one member per line; deeper: one line.
  EXPECT_EQ(writer.take(),
            "{\n"
            "  \"u64\": 18446744073709551615,\n"
            "  \"i64\": -9223372036854775808,\n"
            "  \"tenth\": 0.1,\n"
            "  \"us\": 7.04,\n"
            "  \"inf\": null,\n"
            "  \"text\": \"x\",\n"
            "  \"rows\": [\n"
            "    1,\n"
            "    {\"ok\": true, \"ids\": []}\n"
            "  ],\n"
            "  \"empty\": {},\n"
            "  \"none\": null\n"
            "}\n");
  // take() leaves an empty writer behind.
  EXPECT_EQ(writer.begin_array().end_array().take(), "[]\n");
}

TEST(ObsJson, WriteFileReportsFailure) {
  const std::string path = ::testing::TempDir() + "obs_json_write_file.json";
  ASSERT_TRUE(obs::json::write_file(path, "{}\n"));
  std::ifstream in(path);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), "{}\n");
  std::remove(path.c_str());
  EXPECT_FALSE(obs::json::write_file(
      ::testing::TempDir() + "missing_dir/x.json", "{}"));
#if defined(__linux__)
  // Opening and buffering succeed; only the flush in fclose fails.
  EXPECT_FALSE(obs::json::write_file("/dev/full", "{}"));
#endif
}

// --- Chrome trace exporter ---------------------------------------------------

TEST(ObsExport, MapsSourcesToProcessAndThreadLanes) {
  obs::TraceBuffer buffer;
  const auto cpu_lane = buffer.intern("EcuA/brake_ctl");
  const auto bus_lane = buffer.intern("can0");
  const auto run = buffer.intern("run");
  const auto tx = buffer.intern("tx");
  buffer.begin_span(1'000, Category::kTask, cpu_lane, run);
  buffer.end_span(3'000, Category::kTask, cpu_lane, run);
  buffer.record(2'000, Category::kNetwork, bus_lane, tx, 7);

  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(obs::to_chrome_trace_json(buffer), &doc,
                               &error))
      << error;
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  // Metadata: process "EcuA" and thread "EcuA/brake_ctl"; the bus gets its
  // own process lane named by the full source.
  std::set<std::string> process_names;
  std::set<std::string> thread_names;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.at("ph").string == "M" &&
        e.at("name").string == "process_name") {
      process_names.insert(e.at("args").at("name").string);
    }
    if (e.at("ph").string == "M" && e.at("name").string == "thread_name") {
      thread_names.insert(e.at("args").at("name").string);
    }
  }
  EXPECT_TRUE(process_names.count("EcuA"));
  EXPECT_TRUE(process_names.count("can0"));
  EXPECT_TRUE(thread_names.count("EcuA/brake_ctl"));

  // The begin/end pair became one complete ("X") event with the span's
  // start timestamp and duration, in microseconds.
  bool found_span = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.at("ph").string != "X") continue;
    found_span = true;
    EXPECT_EQ(e.at("name").string, "run");
    EXPECT_DOUBLE_EQ(e.at("ts").number, 1.0);
    EXPECT_DOUBLE_EQ(e.at("dur").number, 2.0);
    EXPECT_EQ(e.at("cat").string, "task");
  }
  EXPECT_TRUE(found_span);
}

TEST(ObsExport, DropsOrphanedSpanHalves) {
  obs::TraceBuffer buffer;
  const auto lane = buffer.intern("e/app");
  const auto name = buffer.intern("run");
  buffer.end_span(5, Category::kTask, lane, name);    // no matching begin
  buffer.begin_span(10, Category::kTask, lane, name);  // never closed
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(obs::to_chrome_trace_json(buffer), &doc));
  const auto& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].at("ph").string, "M");  // only metadata remains
  }
}

// --- Acceptance: platform scenario round-trip --------------------------------

class CounterApp final : public platform::Application {
 public:
  void on_task(const std::string&) override {
    ++counter_;
    if (!active()) return;
    middleware::PayloadWriter writer;
    writer.u64(counter_);
    if (!context_.def->provides.empty()) {
      context_.comm->publish(context_.service_id(context_.def->provides[0]),
                             1, writer.take(),
                             context_.priority_of(context_.def->provides[0]));
    }
  }
  std::vector<std::uint8_t> serialize_state() override {
    middleware::PayloadWriter writer;
    writer.u64(counter_);
    return writer.take();
  }
  void restore_state(const std::vector<std::uint8_t>& state) override {
    middleware::PayloadReader reader(state);
    counter_ = reader.u64();
  }

 private:
  std::uint64_t counter_ = 0;
};

struct Span {
  double ts = 0.0;
  double dur = 0.0;
};

// Spans on one thread lane must nest like a call stack: any two either
// don't overlap or one contains the other.
void expect_properly_nested(const std::vector<Span>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const Span& a = spans[i];
      const Span& b = spans[j];
      const double a_end = a.ts + a.dur;
      const double b_end = b.ts + b.dur;
      const bool disjoint = a_end <= b.ts + 1e-9 || b_end <= a.ts + 1e-9;
      const bool a_in_b = b.ts <= a.ts + 1e-9 && a_end <= b_end + 1e-9;
      const bool b_in_a = a.ts <= b.ts + 1e-9 && b_end <= a_end + 1e-9;
      ASSERT_TRUE(disjoint || a_in_b || b_in_a)
          << "spans overlap partially: [" << a.ts << "," << a_end << ") vs ["
          << b.ts << "," << b_end << ")";
    }
  }
}

TEST(ObsExport, PlatformScenarioExportIsValidAndNested) {
  auto parsed = model::parse_system(R"(
network Net kind=ethernet bitrate=100M
ecu A mips=1000 memory=64M asil=D network=Net
ecu B mips=1000 memory=64M asil=D network=Net
interface Tick paradigm=event payload=8 period=10ms
app Producer class=deterministic asil=B memory=4M
  task work period=10ms wcet=100K priority=1
  provides Tick
app Consumer class=nondeterministic asil=QM memory=4M
  task poll period=50ms wcet=50K priority=8
  consumes Tick
deploy Producer -> A
deploy Consumer -> B
)");
  sim::Simulator simulator;
  sim::Trace trace;
  platform::Vehicle vehicle(simulator, parsed, {.trace = &trace});
  platform::DynamicPlatform& dp = vehicle.platform();
  dp.register_app("Producer", [] { return std::make_unique<CounterApp>(); });
  dp.register_app("Consumer", [] { return std::make_unique<CounterApp>(); });
  ASSERT_TRUE(dp.install_all());
  simulator.run_until(200 * sim::kMillisecond);

  platform::UpdateManager updates(dp);
  model::AppDef v2 = *parsed.model.app("Producer");
  v2.version = 2;
  platform::UpdateReport report;
  updates.staged_update(
      *dp.node("A"), "Producer", v2,
      [] { return std::make_unique<CounterApp>(); }, platform::UpdateConfig{},
      [&](platform::UpdateReport r) { report = r; });
  simulator.run_until(sim::seconds(1));
  ASSERT_TRUE(report.success) << report.reason;

  // Round-trip: export -> parse -> structural validation.
  const std::string exported = obs::to_chrome_trace_json(trace.buffer());
  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(exported, &doc, &error)) << error;
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.size(), 0u);

  std::map<int, std::string> process_names;
  std::map<std::pair<int, int>, std::string> thread_names;
  std::map<std::pair<int, int>, std::vector<Span>> spans_per_lane;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    ASSERT_TRUE(e.at("name").is_string());
    ASSERT_TRUE(e.at("ph").is_string());
    ASSERT_TRUE(e.at("pid").is_number());
    ASSERT_TRUE(e.at("tid").is_number());
    const int pid = static_cast<int>(e.at("pid").number);
    const int tid = static_cast<int>(e.at("tid").number);
    const std::string& ph = e.at("ph").string;
    if (ph == "M") {
      if (e.at("name").string == "process_name") {
        process_names[pid] = e.at("args").at("name").string;
      } else if (e.at("name").string == "thread_name") {
        thread_names[{pid, tid}] = e.at("args").at("name").string;
      }
      continue;
    }
    ASSERT_TRUE(e.at("ts").is_number());
    if (ph == "X") {
      ASSERT_TRUE(e.at("dur").is_number());
      EXPECT_GE(e.at("dur").number, 0.0);
      spans_per_lane[{pid, tid}].push_back(
          {e.at("ts").number, e.at("dur").number});
    }
  }

  // Lane mapping: both ECUs became processes; task lanes and the update
  // lane are threads of their ECU's process.
  std::set<std::string> names;
  for (const auto& [pid, name] : process_names) names.insert(name);
  EXPECT_TRUE(names.count("A"));
  EXPECT_TRUE(names.count("B"));
  bool update_lane_in_a = false;
  bool task_lane_in_a = false;
  for (const auto& [key, thread] : thread_names) {
    const std::string& process = process_names[key.first];
    if (thread == "A/update") {
      update_lane_in_a = true;
      EXPECT_EQ(process, "A");
    }
    if (thread == "A/work" || thread == "A/Producer") task_lane_in_a = true;
  }
  EXPECT_TRUE(update_lane_in_a);
  (void)task_lane_in_a;  // lane names are "<cpu>/<task>"; presence varies

  // Task execution slices and update phases must nest per lane.
  std::size_t total_spans = 0;
  for (auto& [lane, spans] : spans_per_lane) {
    total_spans += spans.size();
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.ts < b.ts; });
    expect_properly_nested(spans);
  }
  EXPECT_GT(total_spans, 20u);  // task slices + frames + update phases

  // The metrics side of the facade saw the run too.
  obs::json::Value metrics;
  ASSERT_TRUE(obs::json::parse(trace.metrics().snapshot_json(), &metrics));
  EXPECT_TRUE(metrics.at("counters").size() > 0 ||
              metrics.at("gauges").size() > 0);
}

// --- CoverageMap -------------------------------------------------------------

TEST(ObsCoverage, InternAndCountBasics) {
  obs::CoverageMap coverage;
  EXPECT_TRUE(coverage.empty());
  EXPECT_EQ(coverage.count("never"), 0u);

  const auto retransmit = coverage.key("transport.retransmit");
  coverage.hit(retransmit);
  coverage.hit(retransmit, 3);
  coverage.hit("degradation.ok->degraded");
  EXPECT_EQ(coverage.size(), 2u);
  EXPECT_EQ(coverage.count("transport.retransmit"), 4u);
  EXPECT_EQ(coverage.count("degradation.ok->degraded"), 1u);

  // Snapshot is a flat object, keys sorted by name.
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(coverage.snapshot_json(), &doc));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("transport.retransmit").number, 4.0);
  EXPECT_EQ(doc.at("degradation.ok->degraded").number, 1.0);
}

TEST(ObsCoverage, MergePreservesReachedKeysAndInterningOrder) {
  obs::CoverageMap a;
  a.hit("recovery.detect");
  a.hit("recovery.commit");
  obs::CoverageMap b;
  b.hit("recovery.detect", 2);
  b.hit("recovery.rollback");
  b.key("recovery.soak");  // reached-key with zero count (pre-resolved)

  obs::CoverageMap merged;
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.count("recovery.detect"), 3u);
  EXPECT_EQ(merged.count("recovery.commit"), 1u);
  EXPECT_EQ(merged.count("recovery.rollback"), 1u);
  // Zero-count keys survive the merge: the *reached key set* is part of the
  // coverage signal, not just the counts.
  EXPECT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.count("recovery.soak"), 0u);

  // Merging in the same shard order from a fresh map reproduces the exact
  // snapshot — the determinism contract ScenarioSweep::merge_coverage needs.
  obs::CoverageMap again;
  again.merge_from(a);
  again.merge_from(b);
  EXPECT_EQ(again.snapshot_json(), merged.snapshot_json());
}

// --- Ring wrap accounting ----------------------------------------------------

TEST(ObsTraceBuffer, WrapAccountingStaysExactOverManyWraps) {
  obs::TraceBuffer buffer({.capacity = 8});
  const auto src = buffer.intern("ecu/app");
  const auto name = buffer.intern("tick");
  for (int i = 0; i < 1000; ++i) {
    buffer.record(i, Category::kTask, src, name, i);
  }
  EXPECT_EQ(buffer.size(), 8u);
  EXPECT_EQ(buffer.recorded(), 1000u);
  EXPECT_EQ(buffer.dropped(), 992u);
  const auto events = buffer.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(events[i].value, 992 + i);

  // Shrinking mid-flight keeps the newest and counts the evictions too.
  buffer.set_capacity(4);
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.dropped(), 996u);
  EXPECT_EQ(buffer.snapshot().front().value, 996);
}

// --- Histogram quantiles -----------------------------------------------------

TEST(ObsMetrics, HistogramSnapshotEmitsNearestRankQuantiles) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("rt.latency_ns");
  for (int i = 0; i < 90; ++i) h.observe(5.0);    // -> [5, 5.25)
  for (int i = 0; i < 9; ++i) h.observe(50.0);    // -> [50, 52)
  h.observe(500.0);                               // -> [496, 512)

  // Nearest rank: rank 50 falls in the first bucket, ranks 95 and 99 in
  // the second (cumulative counts 90 / 99); each reports its bucket's
  // midpoint. Rank 100 is the maximum.
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.125);
  EXPECT_DOUBLE_EQ(h.percentile(95), 51.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 51.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 500.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 5.0);

  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(registry.snapshot_json(), &doc));
  const obs::json::Value& hist = doc.at("histograms").at("rt.latency_ns");
  EXPECT_EQ(hist.at("p50").number, 5.125);
  EXPECT_EQ(hist.at("p95").number, 51.0);
  EXPECT_EQ(hist.at("p99").number, 51.0);
  EXPECT_EQ(hist.at("count").number, 100.0);
  EXPECT_EQ(hist.at("buckets").size(), 3u);
}

// --- The one distribution type ----------------------------------------------

TEST(Stats, EmptyAccumulatorIsZero) {
  obs::Histogram stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.sum(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.percentile(50), 0.0);
}

TEST(Stats, BasicMoments) {
  obs::Histogram stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.observe(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_EQ(stats.sum(), 40.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(Stats, PercentilesAreMonotone) {
  obs::Histogram stats;
  sim::Random rng(3);
  for (int i = 0; i < 1000; ++i) stats.observe(rng.uniform(0, 100));
  double prev = stats.percentile(0);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = stats.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Stats, PercentileOfUniformMatchesValue) {
  obs::Histogram stats;
  for (int i = 0; i <= 100; ++i) stats.observe(static_cast<double>(i));
  // Nearest rank of 0..100: p50 is 50 and p90 is 90, up to the 1/32
  // relative resolution.
  EXPECT_NEAR(stats.percentile(50), 50.0, 50.0 / 32);
  EXPECT_NEAR(stats.percentile(90), 90.0, 90.0 / 32);
}

// Differential check against the exact nearest-rank sample: for each
// shape, every estimate is within 2^-(kSubBits+1) of the exact value, and
// p0/p100 are the exact min and max.
TEST(ObsHistogram, PercentilesMatchExactNearestRank) {
  sim::Random rng(21);
  std::map<std::string, std::vector<double>> shapes;
  for (int i = 0; i <= 100; ++i) shapes["integers"].push_back(i);
  for (int i = 0; i < 20000; ++i) {
    shapes["uniform"].push_back(rng.uniform(1e3, 1e7));
    // Lognormal ns latencies, whole nanoseconds (the integer path).
    shapes["lognormal_ns"].push_back(
        std::round(std::exp(rng.normal(std::log(50'000.0), 1.0))));
    shapes["fractions"].push_back(rng.uniform(0.001, 0.9));
  }
  shapes["constant"].assign(500, 16'000.0);
  const double bound = std::ldexp(1.0, -(obs::Histogram::kSubBits + 1));
  for (auto& [name, samples] : shapes) {
    obs::Histogram h;
    for (const double v : samples) {
      if (name == "lognormal_ns") {
        h.observe(static_cast<std::int64_t>(v));
      } else {
        h.observe(v);
      }
    }
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    for (const double p : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
      const auto rank = static_cast<std::size_t>(std::ceil(p * n / 100.0));
      const double exact = samples[rank - 1];
      EXPECT_LE(std::abs(h.percentile(p) - exact), bound * exact)
          << name << " p" << p;
    }
    EXPECT_EQ(h.percentile(0), samples.front()) << name;
    EXPECT_EQ(h.percentile(100), samples.back()) << name;
  }
}

// --- Post-mortem bundle ------------------------------------------------------

TEST(ObsPostmortem, BundleRoundTripsThroughJson) {
  obs::TraceBuffer buffer({.capacity = 16});
  const auto src = buffer.intern("EcuA/chain");
  const auto name = buffer.intern("chain");
  for (int i = 0; i < 40; ++i) {
    buffer.record(i * 100, Category::kService, src, name, i);
  }
  obs::MetricsRegistry metrics;
  metrics.counter("mw.sent").add(7);
  obs::CoverageMap coverage;
  coverage.hit("transport.retransmit", 2);

  obs::PostMortemInput input;
  input.trace = &buffer;
  input.metrics = &metrics;
  input.coverage = &coverage;
  input.seed = 1234;
  input.verdict = "zero_da_deadline_misses";
  input.detail = "task \"brake\" missed 3 deadlines";  // needs escaping
  input.trace_tail = 8;

  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(obs::make_postmortem_bundle(input), &doc,
                               &error))
      << error;
  const obs::json::Value& pm = doc.at("postmortem");
  EXPECT_EQ(pm.at("seed").number, 1234.0);
  EXPECT_EQ(pm.at("verdict").string, "zero_da_deadline_misses");
  EXPECT_EQ(pm.at("detail").string, "task \"brake\" missed 3 deadlines");
  EXPECT_EQ(pm.at("trace_recorded").number, 40.0);
  EXPECT_EQ(pm.at("trace_dropped").number, 24.0);
  // Tail = the newest 8 of the 16 retained events, oldest-first.
  const obs::json::Value& tail = pm.at("trace_tail");
  ASSERT_EQ(tail.size(), 8u);
  EXPECT_EQ(tail[0].at("value").number, 32.0);
  EXPECT_EQ(tail[7].at("value").number, 39.0);
  EXPECT_EQ(tail[0].at("source").string, "EcuA/chain");
  EXPECT_EQ(pm.at("metrics").at("counters").at("mw.sent").number, 7.0);
  EXPECT_EQ(pm.at("coverage").at("transport.retransmit").number, 2.0);
}

// --- Self-health gauges ------------------------------------------------------

TEST(ObsSelfHealth, RefreshPublishesRingAndInternerGauges) {
  sim::Trace trace(obs::TraceBufferConfig{.capacity = 4});
  for (int i = 0; i < 10; ++i) {
    trace.record(i, sim::TraceCategory::kTask, "ecu/app", "tick", i);
  }
  trace.coverage().hit("update.download");
  trace.coverage().hit("update.apply");
  trace.refresh_self_metrics();

  auto& m = trace.metrics();
  EXPECT_EQ(m.gauge("obs.trace.retained").value(), 4.0);
  EXPECT_EQ(m.gauge("obs.trace.dropped").value(), 6.0);
  EXPECT_EQ(m.gauge("obs.trace.recorded").value(), 10.0);
  EXPECT_GE(m.gauge("obs.interner.size").value(), 2.0);
  EXPECT_EQ(m.gauge("obs.coverage.keys").value(), 2.0);
}

}  // namespace
}  // namespace dynaplat
