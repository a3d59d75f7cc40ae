// dynaplat repository benchmark: entry point.
//
//   perfbench --workload <vehicle_steady|fleet_100k|campaign_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Repeats the workload's seed-generated unit of work until --seconds of
// host time are spent (at least two units) and reports order statistics
// over the units: the fastest decile for throughput, the median for set-up.
// An untimed warm-up unit runs first; every later unit must reproduce its
// fingerprints, simulated metrics and layer counters exactly.
//
// --trace 1 runs the same number of units twice: untraced, then with host
// spans recorded around the benchmark's calls into each layer. Per-layer
// metrics come from the traced units, the difference between the two
// phases is reported as tracing overhead, and the simulated results of both
// phases must be identical.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end set,
// with --trace 1 the per-layer set. The exit status is nonzero when any
// correctness check failed.
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out = ".";
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 &&
         !args->workload.empty();
}

// --- Host and build record ---------------------------------------------------

struct HostRecord {
  unsigned hardware_threads = 0;
  unsigned threads_used = 0;
  std::string cpu_model;
  std::string os;
  std::string compiler;
  std::string build_type;
  bool lto = false;
  bool ndebug = false;
};

HostRecord host_record(unsigned threads_used) {
  HostRecord host;
  host.hardware_threads = hardware_threads();
  host.threads_used = threads_used;
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        host.cpu_model = colon + 1;
        while (!host.cpu_model.empty() && host.cpu_model.front() == ' ') {
          host.cpu_model.erase(host.cpu_model.begin());
        }
        while (!host.cpu_model.empty() && (host.cpu_model.back() == '\n' ||
                                           host.cpu_model.back() == '\r')) {
          host.cpu_model.pop_back();
        }
      }
      break;
    }
    std::fclose(f);
  }
  utsname names{};
  if (uname(&names) == 0) {
    host.os = std::string(names.sysname) + " " + names.release;
  }
  host.compiler = std::string("g++ ") + __VERSION__;
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.lto = PERFBENCH_LTO != 0;
#ifdef NDEBUG
  host.ndebug = true;
#endif
  return host;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// --- Metric lists --------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics of the result line (--trace 0); BENCHMARK.json lists
/// the same names.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_s_per_s", "sim_s/s"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics of the result line (--trace 1). Host-time figures of
/// layers that some workload never calls (model, platform, app, sweep,
/// scenario, backend per-request cost) read exactly zero there, so they are
/// printed in the per-layer table and written to the spans file instead.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"app.activations", "count"},
    {"middleware.send_calls", "count"},
    {"middleware.delivered", "count"},
    {"middleware.failed_calls", "count"},
    {"middleware.stream_losses", "count"},
    {"transport.messages_sent", "count"},
    {"transport.retries", "count"},
    {"transport.acks_sent", "count"},
    {"transport.duplicates_suppressed", "count"},
    {"transport.delivery_failures", "count"},
    {"transport.reassembly_evictions", "count"},
    {"net.can.frames_delivered", "count"},
    {"net.can.frames_dropped", "count"},
    {"net.can.latency_mean_us", "sim_us"},
    {"net.eth.frames_delivered", "count"},
    {"net.eth.frames_dropped", "count"},
    {"net.eth.latency_mean_us", "sim_us"},
    {"os.completions", "count"},
    {"os.deadline_misses", "count"},
    {"os.response_p99_us", "sim_us"},
    {"backend.requests", "count"},
    {"backend.dequeues", "count"},
    {"backend.coalesced", "count"},
    {"backend.synthesis_runs", "count"},
    {"backend.shed", "count"},
    {"backend.backpressured", "count"},
    {"backend.max_queue_depth", "count"},
    {"backend.cache_hit_ratio", "ratio"},
    {"client.attempts", "count"},
    {"client.timeouts", "count"},
    {"client.breaker_opens", "count"},
    {"client.fast_fails", "count"},
    {"client.failovers", "count"},
    {"client.stale_served", "count"},
    {"client.local_admissions", "count"},
    {"client.fallback_none", "count"},
    {"client.useful_ratio", "ratio"},
    {"sweep.threads", "count"},
    {"sweep.efficiency", "ratio"},
    {"run.ops", "count"},
    {"run.ops_failed", "count"},
    {"run.fail_rate", "ratio"},
    {"run.unattributed_s", "s"},
    {"run.trace_overhead_s", "s"},
};

// --- Units ---------------------------------------------------------------------

std::vector<UnitResult> run_units(Workload& workload, double budget_s,
                                  std::size_t min_units,
                                  std::size_t exact_units, double* wall_s) {
  std::vector<UnitResult> units;
  const Clock::time_point start = Clock::now();
  for (;;) {
    units.push_back(workload.run_unit());
    const double elapsed = seconds_between(start, Clock::now());
    if (exact_units != 0) {
      if (units.size() >= exact_units) break;
    } else if (elapsed >= budget_s && units.size() >= min_units) {
      break;
    }
  }
  *wall_s = seconds_between(start, Clock::now());
  return units;
}

std::string fmt_fp(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Compares every unit's simulated results with the reference unit's;
/// returns false and records `what` on the first divergence.
bool same_results(const UnitResult& ref, const std::vector<UnitResult>& units,
                  const std::string& what, std::vector<std::string>& errors) {
  for (std::size_t u = 0; u < units.size(); ++u) {
    const UnitResult& unit = units[u];
    bool same = unit.fingerprints.size() == ref.fingerprints.size() &&
                unit.sim_metrics.size() == ref.sim_metrics.size() &&
                unit.counters.size() == ref.counters.size() &&
                unit.ops == ref.ops && unit.ops_failed == ref.ops_failed;
    for (std::size_t i = 0; same && i < ref.fingerprints.size(); ++i) {
      same = unit.fingerprints[i].value == ref.fingerprints[i].value;
    }
    for (std::size_t i = 0; same && i < ref.sim_metrics.size(); ++i) {
      same = unit.sim_metrics[i].value == ref.sim_metrics[i].value;
    }
    for (std::size_t i = 0; same && i < ref.counters.size(); ++i) {
      same = unit.counters[i].value == ref.counters[i].value;
    }
    if (!same) {
      errors.push_back(what + " unit " + std::to_string(u) +
                       " diverged from the warm-up unit");
      return false;
    }
  }
  return true;
}

void print_metric_line(const Metric& m) {
  std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const HostRecord host = host_record(workload->threads());
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: hardware_threads=%u threads_used=%u cpu=\"%s\" os=\"%s\"\n",
              host.hardware_threads, host.threads_used, host.cpu_model.c_str(),
              host.os.c_str());
  std::printf("build: %s build_type=%s lto=%s ndebug=%s\n",
              host.compiler.c_str(), host.build_type.c_str(),
              host.lto ? "on" : "off", host.ndebug ? "yes" : "no");
  if (!host.ndebug || host.build_type != "Release") {
    std::printf("WARNING: not a Release/NDEBUG build; timings are not "
                "comparable\n");
  }

  std::vector<std::string> errors;
  workload->check_once(errors);

  // One untimed warm-up unit lets caches fill and lazy set-up finish; it
  // joins the reproducibility comparison.
  const UnitResult warmup = workload->run_unit();

  // Untraced phase: the end-to-end numbers.
  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  double untraced_wall = 0.0;
  std::vector<UnitResult> units =
      run_units(*workload, budget, 2, 0, &untraced_wall);
  const double rss_mb = peak_rss_mb();

  // Traced phase: the same units again with spans on.
  std::vector<UnitResult> traced;
  double traced_wall = 0.0;
  spans::Totals span_totals;
  if (args.trace) {
    spans::set_enabled(true);
    traced = run_units(*workload, 0.0, 0, units.size(), &traced_wall);
    spans::set_enabled(false);
    span_totals = spans::totals();
  }

  // Every repetition reproduces the warm-up unit bit for bit, and tracing
  // from outside must not perturb the model.
  same_results(warmup, units, "untraced", errors);
  const bool traced_same = same_results(warmup, traced, "traced", errors);
  for (const std::vector<UnitResult>* set : {&units, &traced}) {
    for (const UnitResult& unit : *set) {
      for (const std::string& e : unit.errors) errors.push_back(e);
    }
  }
  for (const std::string& e : warmup.errors) errors.push_back(e);

  // --- End-to-end metrics (untraced units) ---------------------------------
  std::vector<double> setups;
  std::vector<double> sim_rates;
  std::vector<double> item_rates;
  for (const UnitResult& unit : units) {
    if (unit.setup_samples.empty()) {
      setups.push_back(unit.setup_s);
    } else {
      setups.insert(setups.end(), unit.setup_samples.begin(),
                    unit.setup_samples.end());
    }
    sim_rates.push_back(unit.sim_s / unit.run_s);
    item_rates.push_back(unit.items / unit.run_s);
  }
  const UnitResult& first = units.front();
  const double fail_rate =
      first.ops == 0 ? 0.0
                     : static_cast<double>(first.ops_failed) /
                           static_cast<double>(first.ops);
  // Throughput is the fastest decile of the units. On a shared host the
  // unit rates are bimodal: neighbours' load slows whole stretches of a run
  // to roughly half speed, and the share of slow units differs from run to
  // run, which moves a median far more than the program's own cost does.
  // Set-up samples are many and short, so their median is steady.
  constexpr double kRateQuantile = 0.9;
  std::vector<Metric> e2e = {
      {"setup_s", median(setups), "s"},
      {"sim_s_per_s", percentile(sim_rates, kRateQuantile), "sim_s/s"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
  std::vector<Metric> report;
  if (std::string(workload->item_name()) != "sim_s") {
    report.push_back({std::string(workload->item_name()) + "_per_s",
                      percentile(item_rates, kRateQuantile), "1/s"});
  }
  report.insert(report.end(), {
      {"ops", static_cast<double>(first.ops), "count"},
      {"ops_failed", static_cast<double>(first.ops_failed), "count"},
      {"fail_rate", fail_rate, "ratio"},
  });
  for (const Metric& m : workload->report_metrics(units)) report.push_back(m);

  std::printf("\nunits: %zu untraced in %.3f s", units.size(), untraced_wall);
  if (args.trace) {
    std::printf(", %zu traced in %.3f s", traced.size(), traced_wall);
  }
  std::printf("\nsim_s_per_s over units: min %.4f  q1 %.4f  median %.4f  q3 "
              "%.4f  max %.4f",
              percentile(sim_rates, 0.0), percentile(sim_rates, 0.25),
              median(sim_rates), percentile(sim_rates, 0.75),
              percentile(sim_rates, 1.0));
  std::printf("\n\nend-to-end (untraced units; rates: fastest decile, "
              "set-up: median):\n");
  for (const Metric& m : e2e) print_metric_line(m);
  for (const Metric& m : report) print_metric_line(m);
  std::printf("\nsimulated results (identical in every unit):\n");
  for (const Metric& m : first.sim_metrics) print_metric_line(m);
  for (const Fingerprint& fp : first.fingerprints) {
    std::printf("  fingerprint.%-22s %18s\n", fp.name.c_str(),
                fmt_fp(fp.value).c_str());
  }

  // --- Per-layer metrics (traced units) ------------------------------------
  std::map<std::string, Metric> layer;
  if (args.trace) {
    const double n = static_cast<double>(traced.size());
    for (const Metric& m : first.counters) layer[m.name] = m;
    layer["run.ops"] = {"run.ops", static_cast<double>(first.ops), "count"};
    layer["run.ops_failed"] = {"run.ops_failed",
                               static_cast<double>(first.ops_failed),
                               "count"};
    layer["run.fail_rate"] = {"run.fail_rate", fail_rate, "ratio"};
    const double events = layer.count("sim.events") != 0
                              ? layer["sim.events"].value
                              : 0.0;
    std::vector<double> ns_per_event;
    for (const UnitResult& unit : units) {
      ns_per_event.push_back(events == 0.0 ? 0.0
                                           : unit.run_s * 1e9 *
                                                 workload->threads() / events);
    }
    layer["sim.ns_per_event"] = {"sim.ns_per_event", median(ns_per_event),
                                 "ns"};
    const auto& k = span_totals.kinds;
    const auto per_unit = [&](spans::Kind kind, bool self) {
      return (self ? k[kind].self_s : k[kind].total_s) / n;
    };
    const auto add = [&](const char* name, double value, const char* unit) {
      layer[name] = {name, value, unit};
    };
    add("model.parse_s", per_unit(spans::kModelParse, false), "s");
    add("model.verify_s", per_unit(spans::kModelVerify, false), "s");
    add("platform.install_s", per_unit(spans::kPlatformInstall, false), "s");
    add("app.callback_s", per_unit(spans::kAppCallback, true), "s");
    add("middleware.send_s", per_unit(spans::kMiddlewareSend, false), "s");
    add("sim.run_self_s", per_unit(spans::kSimRun, true), "s");
    add("backend.fleet_setup_s", per_unit(spans::kFleetSetup, false), "s");
    const double sweep_wall = per_unit(spans::kSweepRun, false);
    const double sweep_busy = per_unit(spans::kScenario, false);
    add("sweep.wall_s", sweep_wall, "s");
    add("sweep.busy_s", sweep_busy, "s");
    const double threads = layer.count("sweep.threads") != 0
                               ? layer["sweep.threads"].value
                               : 0.0;
    add("sweep.efficiency",
        sweep_wall > 0.0 && threads > 0.0 ? sweep_busy / (sweep_wall * threads)
                                          : 0.0,
        "ratio");
    const auto per_scenario = [&](spans::Kind kind) {
      return k[kind].count == 0
                 ? 0.0
                 : k[kind].total_s / static_cast<double>(k[kind].count);
    };
    add("scenario.setup_s", per_scenario(spans::kScenarioSetup), "s");
    add("scenario.run_s", per_scenario(spans::kScenarioRun), "s");
    add("scenario.check_s", per_scenario(spans::kScenarioCheck), "s");
    add("bench.check_s", per_unit(spans::kCheck, false), "s");
    for (const Metric& m : first.host_layer) layer[m.name] = m;
    // Not covered by any layer span: kernel-loop self time (kernel, os,
    // net, transport, middleware dispatch, backend service) plus the
    // benchmark's own glue between spans on this thread.
    const double glue = traced_wall - span_totals.caller_top_level_s;
    add("run.unattributed_s",
        (k[spans::kSimRun].self_s + glue) / n, "s");
    add("run.trace_overhead_s", (traced_wall - untraced_wall) / n, "s");
    add("run.trace_overhead_ratio",
        untraced_wall > 0.0 ? traced_wall / untraced_wall - 1.0 : 0.0,
        "ratio");

    std::printf("\ntraced vs untraced simulated results: %s\n",
                traced_same ? "identical" : "DIFFERENT");
    std::printf("\nper-layer (traced units; host times per unit, scenario.* "
                "per scenario, sim.ns_per_event from the untraced units):\n");
    for (const auto& [name, m] : layer) print_metric_line(m);
    std::printf("\nspans (traced phase, all units; %llu kept, %llu beyond "
                "the in-memory cap):\n",
                static_cast<unsigned long long>(span_totals.kept),
                static_cast<unsigned long long>(span_totals.dropped));
    std::printf("  %-22s %12s %14s %14s\n", "span", "count", "total_s",
                "self_s");
    for (std::size_t i = 0; i < spans::kCount; ++i) {
      if (k[i].count == 0) continue;
      std::printf("  %-22s %12llu %14.6f %14.6f\n",
                  spans::name(static_cast<spans::Kind>(i)),
                  static_cast<unsigned long long>(k[i].count), k[i].total_s,
                  k[i].self_s);
    }
    const std::string spans_path = args.out + "/" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   "-spans.json";
    if (spans::write_json(spans_path)) {
      std::printf("spans written to %s\n", spans_path.c_str());
    } else {
      errors.push_back("cannot write " + spans_path);
    }
  }

  // --- Results file (one schema for every workload) ------------------------
  const std::string result_path = args.out + "/" + args.workload + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed));
    std::fprintf(f,
                 "  \"host\": {\"hardware_threads\": %u, \"threads_used\": "
                 "%u, \"cpu_model\": \"%s\", \"os\": \"%s\", \"compiler\": "
                 "\"%s\", \"build_type\": \"%s\", \"lto\": %s, \"ndebug\": "
                 "%s},\n",
                 host.hardware_threads, host.threads_used,
                 json_escape(host.cpu_model).c_str(),
                 json_escape(host.os).c_str(),
                 json_escape(host.compiler).c_str(),
                 json_escape(host.build_type).c_str(),
                 host.lto ? "true" : "false", host.ndebug ? "true" : "false");
    std::fprintf(f, "  \"units\": %zu,\n  \"metrics\": {", units.size());
    bool comma = false;
    const auto emit = [&](const Metric& m) {
      std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   comma ? "," : "", m.name.c_str(), m.value, m.unit.c_str());
      comma = true;
    };
    for (const Metric& m : e2e) emit(m);
    for (const Metric& m : report) emit(m);
    for (const Metric& m : first.sim_metrics) emit(m);
    for (const auto& [name, m] : layer) emit(m);
    std::fprintf(f, "\n  },\n  \"fingerprints\": {");
    for (std::size_t i = 0; i < first.fingerprints.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": \"%s\"", i == 0 ? "" : ",",
                   first.fingerprints[i].name.c_str(),
                   fmt_fp(first.fingerprints[i].value).c_str());
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
  }

  // --- Verdict + result line -------------------------------------------------
  const bool correct = errors.empty();
  std::printf("\ncorrectness: %s\n", correct ? "PASS" : "FAIL");
  for (const std::string& e : errors) std::printf("  FAIL: %s\n", e.c_str());

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(first.ops);
  line += ", \"failed\": " + std::to_string(first.ops_failed);
  line += ", \"metrics\": {";
  bool comma = false;
  const auto append = [&](const char* name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  comma ? ", " : "", name,
                  std::isfinite(value) ? value : 0.0, unit);
    line += buf;
    comma = true;
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = layer.find(spec.name);
      append(spec.name, it == layer.end() ? 0.0 : it->second.value,
             spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      for (const Metric& m : e2e) {
        if (m.name == spec.name) append(spec.name, m.value, spec.unit);
      }
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
