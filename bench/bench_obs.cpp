// Observability record cost (ISSUE 2 acceptance bench) + causal chain
// tracing overhead and end-to-end demo (PR 7 acceptance bench).
//
// Part 1 measures the per-event cost of the trace v2 hot path over a
// 10^6-event run in three configurations: tracing disabled (the always-on
// price every production path pays), enabled with an unbounded buffer, and
// enabled with a 65536-event ring (bounded memory, oldest evicted). Also
// measures the metrics side: counter add and histogram observe.
//
// Part 2 measures the chain-tracing additions: the disabled path (tracer
// configured off — must stay within a 2 ns/event budget, enforced by exit
// code), the unsampled path (1-in-1024 sampling: the common case is one
// counter increment + modulo + branch), and the fully sampled hop pipeline
// (start + send + receive + dispatch: 4 histogram observes + the flow/span
// records).
//
// Part 3 runs a reliable, lossy, fragmented two-ECU loopback with chain
// tracing on, exports the Chrome trace (BENCH_obs_trace.json) and a
// post-mortem bundle (BENCH_obs_postmortem.json), and validates both by
// parsing them with obs::json — the causally-linked flow (s/t/f sharing an
// id across two processes) must actually be present in the artifact, not
// just claimed. Any validation failure exits nonzero.
//
// Results go to stdout and BENCH_obs.json.
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "middleware/transport.hpp"
#include "obs/context.hpp"
#include "obs/coverage.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

using namespace dynaplat;

namespace {

constexpr std::uint64_t kEvents = 1'000'000;
constexpr std::size_t kRingCapacity = 65'536;
constexpr std::uint64_t kChains = 200'000;
constexpr double kDisabledBudgetNs = 2.0;

struct Sample {
  const char* config = "";
  double ns_per_event = 0.0;
  std::uint64_t recorded = 0;
  std::size_t retained = 0;
  std::uint64_t dropped = 0;
  std::size_t approx_bytes = 0;
};

Sample run_trace(const char* config, obs::TraceBufferConfig buffer_config,
                 bool enabled) {
  obs::TraceBuffer buffer(buffer_config);
  buffer.set_enabled(enabled);
  const auto source = buffer.intern("ecu0/brake_ctl");
  const auto name = buffer.intern("run");
  const bench::Stopwatch watch;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    buffer.record(static_cast<sim::Time>(i), obs::Category::kTask, source,
                  name, static_cast<std::int64_t>(i));
  }
  Sample sample;
  sample.config = config;
  sample.ns_per_event = watch.elapsed_ms() * 1e6 / static_cast<double>(kEvents);
  sample.recorded = buffer.recorded();
  sample.retained = buffer.size();
  sample.dropped = buffer.dropped();
  sample.approx_bytes = buffer.size() * sizeof(obs::Event);
  return sample;
}

Sample run_counter() {
  obs::MetricsRegistry registry;
  auto& counter = registry.counter("bench.events");
  const bench::Stopwatch watch;
  for (std::uint64_t i = 0; i < kEvents; ++i) counter.add();
  Sample sample;
  sample.config = "counter_add";
  sample.ns_per_event = watch.elapsed_ms() * 1e6 / static_cast<double>(kEvents);
  sample.recorded = counter.value();
  return sample;
}

Sample run_histogram() {
  obs::MetricsRegistry registry;
  auto& histogram = registry.histogram("bench.latency_ns");
  const bench::Stopwatch watch;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    histogram.observe(static_cast<double>(i % 10'000'000));
  }
  Sample sample;
  sample.config = "histogram_observe";
  sample.ns_per_event = watch.elapsed_ms() * 1e6 / static_cast<double>(kEvents);
  sample.recorded = histogram.count();
  return sample;
}

// --- Chain-tracing overhead ---------------------------------------------------

/// Disabled / unsampled start() cost: the per-chain price every producer pays
/// whether or not its chain is sampled. Best-of-N to shed scheduler noise.
Sample run_chain_start(const char* config, std::uint32_t sample_every) {
  obs::TraceBuffer buffer(obs::TraceBufferConfig{.capacity = kRingCapacity});
  obs::MetricsRegistry metrics;
  obs::ChainTracer tracer(buffer, metrics, "EcuA/chain", 1,
                          obs::ChainTracerConfig{.sample_every = sample_every});
  volatile std::uint64_t sink = 0;
  const double ms = bench::min_elapsed_ms(5, [&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const obs::TraceContext ctx = tracer.start(i);
      if (ctx.active()) sink = sink + 1;
    }
  });
  Sample sample;
  sample.config = config;
  sample.ns_per_event = ms * 1e6 / static_cast<double>(kEvents);
  sample.recorded = tracer.chains_sampled();
  sample.retained = buffer.size();
  sample.dropped = buffer.dropped();
  return sample;
}

/// Full sampled pipeline: one chain = start + on_send + on_receive +
/// on_dispatch (4 histogram observes + span/flow ring records).
Sample run_chain_sampled() {
  obs::TraceBuffer buffer(obs::TraceBufferConfig{.capacity = kRingCapacity});
  obs::MetricsRegistry metrics;
  obs::ChainTracer tracer(buffer, metrics, "EcuA/chain", 1);
  const bench::Stopwatch watch;
  for (std::uint64_t i = 0; i < kChains; ++i) {
    const std::uint64_t t = i * 10'000;
    obs::TraceContext ctx = tracer.start(t);
    ctx.sent_ns = t + 500;
    tracer.on_send(ctx);
    tracer.on_receive(ctx, t + 1'500, t + 2'000);
    tracer.on_dispatch(ctx, t + 2'000, t + 2'600, true);
  }
  Sample sample;
  sample.config = "chain_sampled_hops";
  sample.ns_per_event = watch.elapsed_ms() * 1e6 / static_cast<double>(kChains);
  sample.recorded = tracer.chains_sampled();
  sample.retained = buffer.size();
  sample.dropped = buffer.dropped();
  sample.approx_bytes = buffer.size() * sizeof(obs::Event);
  return sample;
}

// --- End-to-end demo + artifact validation -----------------------------------

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string content;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  return content;
}

struct DemoResult {
  bool ok = true;
  std::string why;
  std::uint64_t delivered = 0;
  std::uint64_t retries = 0;
  std::uint64_t flow_starts = 0;
  std::uint64_t flow_steps = 0;
  std::uint64_t flow_ends = 0;

  void fail(std::string reason) {
    ok = false;
    if (!why.empty()) why += "; ";
    why += std::move(reason);
  }
};

DemoResult run_demo() {
  DemoResult result;

  sim::Simulator sim;
  obs::TraceBuffer buffer;
  obs::MetricsRegistry metrics;
  obs::CoverageMap coverage;
  obs::ChainTracer tracer_a(buffer, metrics, "EcuA/chain", 1);
  obs::ChainTracer tracer_b(buffer, metrics, "EcuB/chain", 2);

  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 5 * sim::kMillisecond;

  // Lossy wire a->b: the first 3 data frames vanish, forcing retransmission
  // of traced messages; the return path (acks) is clean.
  int drop_budget = 3;
  std::unique_ptr<middleware::Transport> a;
  std::unique_ptr<middleware::Transport> b;
  a = std::make_unique<middleware::Transport>(
      [&](net::Frame frame) {
        frame.src = 1;
        if (drop_budget > 0) {
          --drop_budget;
          return;
        }
        sim.schedule_in(10 * sim::kMicrosecond,
                        [&b, frame] { b->on_frame(frame); });
      },
      64, sim, config);
  b = std::make_unique<middleware::Transport>(
      [&](net::Frame frame) {
        frame.src = 2;
        sim.schedule_in(10 * sim::kMicrosecond,
                        [&a, frame] { a->on_frame(frame); });
      },
      64, sim, config);
  a->set_tracer(&tracer_a);
  b->set_tracer(&tracer_b);
  a->set_coverage(&coverage);
  b->set_coverage(&coverage);

  std::uint64_t delivered = 0;
  b->set_handler([&](net::NodeId, net::Payload message,
                     const obs::TraceContext& ctx) {
    ++delivered;
    (void)message;
    if (ctx.sampled()) {
      // Model a 20 us handler before closing the chain, like the runtime's
      // CPU-charge path does.
      const sim::Time delivered_at = sim.now();
      sim.schedule_in(20 * sim::kMicrosecond, [&tracer_b, ctx, delivered_at,
                                               &sim] {
        tracer_b.on_dispatch(ctx, delivered_at, sim.now(), true);
      });
    }
  });

  constexpr int kMessages = 16;
  for (int i = 0; i < kMessages; ++i) {
    sim.schedule_in((1 + i * 2) * sim::kMillisecond, [&, i] {
      std::vector<std::uint8_t> body(180, static_cast<std::uint8_t>(i));
      const obs::TraceContext ctx = tracer_a.start(sim.now());
      a->send(2, 3, 7, std::move(body), ctx);
    });
  }
  sim.run_until(500 * sim::kMillisecond);

  result.delivered = delivered;
  result.retries = a->retries();
  if (delivered != kMessages) {
    result.fail("delivered " + std::to_string(delivered) + "/" +
                std::to_string(kMessages));
  }
  if (a->retries() == 0) result.fail("lossy wire produced no retries");
  if (coverage.count("transport.retransmit") == 0) {
    result.fail("coverage missing transport.retransmit");
  }
  if (coverage.count("transport.fragment_coalesce") == 0) {
    result.fail("coverage missing transport.fragment_coalesce");
  }

  // Chrome trace artifact: written, parseable, and actually carrying the
  // causally-linked flow across two processes.
  if (!obs::write_chrome_trace_file(buffer, "BENCH_obs_trace.json")) {
    result.fail("cannot write BENCH_obs_trace.json");
    return result;
  }
  obs::json::Value doc;
  std::string error;
  if (!obs::json::parse(read_file("BENCH_obs_trace.json"), &doc, &error)) {
    result.fail("trace json parse: " + error);
    return result;
  }
  const obs::json::Value& events = doc.at("traceEvents");
  std::set<double> start_ids;
  std::set<double> end_ids;
  std::set<double> start_pids;
  std::set<double> end_pids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::json::Value& event = events[i];
    const std::string& ph = event.at("ph").string;
    if (ph == "s") {
      ++result.flow_starts;
      start_ids.insert(event.at("id").number);
      start_pids.insert(event.at("pid").number);
    } else if (ph == "t") {
      ++result.flow_steps;
    } else if (ph == "f") {
      ++result.flow_ends;
      end_ids.insert(event.at("id").number);
      end_pids.insert(event.at("pid").number);
    }
  }
  if (result.flow_starts == 0) result.fail("no flow-start events in trace");
  if (result.flow_steps == 0) result.fail("no flow-step events in trace");
  if (result.flow_ends == 0) result.fail("no flow-end events in trace");
  for (double id : end_ids) {
    if (start_ids.count(id) == 0) {
      result.fail("flow end id without matching start");
      break;
    }
  }
  if (!start_pids.empty() && start_pids == end_pids) {
    result.fail("flow does not cross processes (same pid set at both ends)");
  }

  // Post-mortem bundle: written from the same run, parseable, and carrying
  // the trace tail + metrics + coverage sections.
  obs::PostMortemInput input;
  input.trace = &buffer;
  input.metrics = &metrics;
  input.coverage = &coverage;
  input.seed = 42;
  input.verdict = "bench_demo";
  input.detail = "synthetic bundle from the bench loopback run";
  if (!obs::write_postmortem_file(input, "BENCH_obs_postmortem.json")) {
    result.fail("cannot write BENCH_obs_postmortem.json");
    return result;
  }
  obs::json::Value bundle;
  if (!obs::json::parse(read_file("BENCH_obs_postmortem.json"), &bundle,
                        &error)) {
    result.fail("postmortem json parse: " + error);
    return result;
  }
  const obs::json::Value& pm = bundle.at("postmortem");
  if (pm.at("seed").number != 42.0) result.fail("postmortem seed mismatch");
  if (pm.at("trace_tail").size() == 0) result.fail("postmortem tail empty");
  if (pm.at("coverage").size() == 0) result.fail("postmortem coverage empty");
  if (pm.at("metrics").size() == 0) result.fail("postmortem metrics empty");
  return result;
}

}  // namespace

int main() {
  bench::banner("OBS", "trace/metrics/chain record cost over 1M events");
  std::vector<Sample> samples;
  samples.push_back(
      run_trace("trace_disabled", obs::TraceBufferConfig{}, false));
  samples.push_back(
      run_trace("trace_unbounded", obs::TraceBufferConfig{}, true));
  samples.push_back(run_trace(
      "trace_ring_65536", obs::TraceBufferConfig{.capacity = kRingCapacity},
      true));
  samples.push_back(run_counter());
  samples.push_back(run_histogram());
  samples.push_back(run_chain_start("chain_disabled", 0));
  samples.push_back(run_chain_start("chain_unsampled_1in1024", 1024));
  samples.push_back(run_chain_sampled());

  bench::Table table(
      {"config", "ns_per_event", "recorded", "retained", "dropped",
       "approx_bytes"});
  for (const Sample& s : samples) {
    table.row({s.config, bench::fmt(s.ns_per_event, 2),
               bench::fmt(s.recorded), bench::fmt(s.retained),
               bench::fmt(s.dropped), bench::fmt(s.approx_bytes)});
  }

  const DemoResult demo = run_demo();
  std::printf("\nchain demo: delivered=%llu retries=%llu flows s/t/f=%llu/%llu/%llu -> %s\n",
              static_cast<unsigned long long>(demo.delivered),
              static_cast<unsigned long long>(demo.retries),
              static_cast<unsigned long long>(demo.flow_starts),
              static_cast<unsigned long long>(demo.flow_steps),
              static_cast<unsigned long long>(demo.flow_ends),
              demo.ok ? "ok" : demo.why.c_str());

  const bool written = bench::write_result(
      "BENCH_obs.json", "obs_record_cost", [&](obs::json::Writer& out) {
        out.member("events", kEvents).member("ring_capacity", kRingCapacity);
        out.key("samples").begin_array();
        for (const Sample& s : samples) {
          out.begin_object()
              .member("config", s.config)
              .member("ns_per_event", bench::rounded(s.ns_per_event, 3))
              .member("recorded", s.recorded)
              .member("retained", s.retained)
              .member("dropped", s.dropped)
              .member("approx_bytes", s.approx_bytes)
              .end_object();
        }
        out.end_array();
        out.key("chain_demo")
            .begin_object()
            .member("delivered", demo.delivered)
            .member("retries", demo.retries)
            .member("flow_starts", demo.flow_starts)
            .member("flow_steps", demo.flow_steps)
            .member("flow_ends", demo.flow_ends)
            .member("ok", demo.ok)
            .end_object();
      });

  bool failed = !written;
  for (const Sample& s : samples) {
    if (std::string(s.config) == "chain_disabled" &&
        s.ns_per_event > kDisabledBudgetNs) {
      std::fprintf(stderr,
                   "FAIL: chain_disabled %.3f ns/event exceeds %.1f ns budget\n",
                   s.ns_per_event, kDisabledBudgetNs);
      failed = true;
    }
  }
  if (!demo.ok) {
    std::fprintf(stderr, "FAIL: chain demo validation: %s\n",
                 demo.why.c_str());
    failed = true;
  }
  return failed ? 1 : 0;
}
