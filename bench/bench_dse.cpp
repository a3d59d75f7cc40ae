// E5 -- Sec. 2.3: design space exploration scalability and quality.
//
// Random app sets mapped onto ECU farms of growing size. Strategies:
// exhaustive (exact, exponential), greedy first-fit, simulated annealing,
// genetic. Reported: feasibility, achieved cost (lower = better), candidates
// evaluated and host wall time.
//
// Expected shape: exhaustive blows up past ~6 apps x 4 ECUs; greedy is
// near-free but leaves cost on the table; SA/GA close most of the gap at
// 100-1000x fewer evaluations than exhaustive.
//
// E5b additionally measures the parallel/memoized evaluation path against
// the legacy serial always-reverify baseline and emits machine-readable
// results to BENCH_dse.json (candidates/sec, speedup, cache hit rate) so
// successive PRs accumulate a perf trajectory. The exit status is nonzero
// when the threaded genetic run's cost differs from the serial one.
#include <cstdio>
#include <string>

#include <cmath>

#include "bench/common.hpp"
#include "dse/exploration.hpp"
#include "model/parser.hpp"
#include "sim/random.hpp"

using namespace dynaplat;

namespace {

model::ParsedSystem make_system(std::size_t apps, std::size_t ecus,
                                std::uint64_t seed) {
  sim::Random rng(seed);
  std::string dsl = "network Net kind=ethernet bitrate=1G\n";
  for (std::size_t e = 0; e < ecus; ++e) {
    dsl += "ecu E" + std::to_string(e) +
           " mips=1000 memory=256M asil=D network=Net\n";
  }
  // Interfaces chain apps together so communication locality matters.
  for (std::size_t a = 0; a + 1 < apps; ++a) {
    dsl += "interface I" + std::to_string(a) +
           " paradigm=event payload=64 period=10ms\n";
  }
  for (std::size_t a = 0; a < apps; ++a) {
    // All apps share one ASIL: the chain of provides/consumes below would
    // otherwise trip the asil.dependency rule by construction.
    const bool deterministic = a % 2 == 0;
    dsl += "app A" + std::to_string(a) + " class=" +
           (deterministic ? "deterministic" : "nondeterministic") +
           " asil=B memory=16M\n";
    const auto wcet_k = 500 + rng.next_below(2000);  // util 0.05 - 0.25
    dsl += "  task t period=10ms wcet=" + std::to_string(wcet_k) + "K" +
           " priority=" + std::to_string(a % 16) + "\n";
    if (a > 0) dsl += "  consumes I" + std::to_string(a - 1) + "\n";
    if (a + 1 < apps) dsl += "  provides I" + std::to_string(a) + "\n";
  }
  return model::parse_system(dsl);
}

struct ThroughputSample {
  std::uint64_t candidates = 0;
  std::uint64_t cache_hits = 0;
  double wall_ms = 0.0;
  double cost = 0.0;
  double per_second() const {
    return wall_ms > 0.0 ? static_cast<double>(candidates) * 1e3 / wall_ms
                         : 0.0;
  }
  double hit_rate() const {
    return candidates > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(candidates)
               : 0.0;
  }
};

ThroughputSample sample_of(const dse::ExplorationResult& result,
                           double wall_ms) {
  ThroughputSample s;
  s.candidates = result.candidates_evaluated;
  s.cache_hits = result.cache_hits;
  s.wall_ms = wall_ms;
  s.cost = result.cost;
  return s;
}

/// E5b: serial always-reverify baseline (cache off, threads 0 — the legacy
/// evaluation path) vs. the parallel memoized path, on the largest E5 case.
/// Returns whether the threaded genetic cost equals the serial one.
bool throughput_experiment() {
  constexpr std::size_t kApps = 20;
  constexpr std::size_t kEcus = 8;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPopulation = 24;
  constexpr std::size_t kGenerations = 150;
  constexpr std::uint64_t kAnnealIters = 12'000;
  constexpr std::size_t kChains = 8;
  constexpr std::uint64_t kSeed = 7;

  bench::banner("E5b", "parallel + memoized DSE throughput");
  bench::Table table({"strategy", "config", "candidates", "cache_hit_rate",
                      "wall_ms", "cand_per_s", "cost"});

  auto sys = make_system(kApps, kEcus, 42 + kApps);

  ThroughputSample genetic_serial, genetic_parallel;
  {
    dse::Explorer explorer(sys.model);
    explorer.set_cache_enabled(false);
    bench::Stopwatch stopwatch;
    const auto result =
        explorer.genetic(kPopulation, kGenerations, kSeed, 0);
    genetic_serial = sample_of(result, stopwatch.elapsed_ms());
  }
  {
    dse::Explorer explorer(sys.model);
    bench::Stopwatch stopwatch;
    const auto result =
        explorer.genetic(kPopulation, kGenerations, kSeed, kThreads);
    genetic_parallel = sample_of(result, stopwatch.elapsed_ms());
  }

  ThroughputSample anneal_serial, anneal_parallel;
  {
    dse::Explorer explorer(sys.model);
    explorer.set_cache_enabled(false);
    bench::Stopwatch stopwatch;
    const auto result = explorer.simulated_annealing(kAnnealIters, kSeed, 1, 0);
    anneal_serial = sample_of(result, stopwatch.elapsed_ms());
  }
  {
    dse::Explorer explorer(sys.model);
    bench::Stopwatch stopwatch;
    const auto result =
        explorer.simulated_annealing(kAnnealIters, kSeed, kChains, kThreads);
    anneal_parallel = sample_of(result, stopwatch.elapsed_ms());
  }

  const auto row = [&](const char* strategy, const char* config,
                       const ThroughputSample& s) {
    table.row({strategy, config, bench::fmt(s.candidates),
               bench::fmt(s.hit_rate(), 3), bench::fmt(s.wall_ms, 1),
               bench::fmt(s.per_second(), 0), bench::fmt(s.cost, 1)});
  };
  row("genetic", "serial,nocache", genetic_serial);
  row("genetic", "threads=8,cache", genetic_parallel);
  row("annealing", "serial,nocache,chains=1", anneal_serial);
  row("annealing", "threads=8,cache,chains=8", anneal_parallel);

  const double genetic_speedup =
      genetic_serial.per_second() > 0
          ? genetic_parallel.per_second() / genetic_serial.per_second()
          : 0.0;
  const double anneal_speedup =
      anneal_serial.per_second() > 0
          ? anneal_parallel.per_second() / anneal_serial.per_second()
          : 0.0;
  std::printf("genetic speedup: %.2fx   annealing speedup: %.2fx\n",
              genetic_speedup, anneal_speedup);
  const bool deterministic = genetic_serial.cost == genetic_parallel.cost;
  std::printf("genetic cost serial vs threads=%zu: %s\n", kThreads,
              deterministic ? "identical" : "DIVERGED");

  bench::write_result(
      "BENCH_dse.json", "E5b_parallel_dse", [&](obs::json::Writer& out) {
        const auto sample = [&out](const char* key,
                                   const ThroughputSample& s) {
          out.key(key)
              .begin_object()
              .member("candidates", s.candidates)
              .member("wall_ms", bench::rounded(s.wall_ms, 3))
              .member("candidates_per_sec", bench::rounded(s.per_second(), 1))
              .member("cache_hits", s.cache_hits)
              .member("cache_hit_rate", bench::rounded(s.hit_rate(), 4))
              .member("cost", bench::rounded(s.cost, 6))
              .end_object();
        };
        out.member("apps", kApps)
            .member("ecus", kEcus)
            .member("threads", kThreads);
        out.key("genetic").begin_object();
        sample("serial_baseline", genetic_serial);
        sample("parallel_memoized", genetic_parallel);
        out.member("speedup", bench::rounded(genetic_speedup, 3))
            .member("deterministic", deterministic)
            .end_object();
        out.key("annealing").begin_object();
        sample("serial_baseline", anneal_serial);
        sample("parallel_memoized", anneal_parallel);
        out.member("speedup", bench::rounded(anneal_speedup, 3)).end_object();
      });
  return deterministic;
}

}  // namespace

int main() {
  bench::banner("E5", "design space exploration (Sec. 2.3, [9,14])");
  bench::Table table({"apps", "ecus", "strategy", "feasible", "cost",
                      "candidates", "wall_ms"});
  struct Case {
    std::size_t apps;
    std::size_t ecus;
  };
  for (const Case& c : {Case{4, 2}, Case{6, 3}, Case{8, 4}, Case{12, 5},
                        Case{20, 8}}) {
    auto sys = make_system(c.apps, c.ecus, 42 + c.apps);
    dse::Explorer explorer(sys.model);

    const bool exhaustive_viable =
        std::pow(static_cast<double>(c.ecus),
                 static_cast<double>(c.apps)) <= 70'000;
    if (exhaustive_viable) {
      bench::Stopwatch stopwatch;
      const auto result = explorer.exhaustive();
      table.row({bench::fmt(c.apps), bench::fmt(c.ecus), "exhaustive",
                 result.feasible ? "yes" : "no", bench::fmt(result.cost, 1),
                 bench::fmt(result.candidates_evaluated),
                 bench::fmt(stopwatch.elapsed_ms(), 1)});
    } else {
      table.row({bench::fmt(c.apps), bench::fmt(c.ecus), "exhaustive",
                 "-", "-", "skipped(>70k)", "-"});
    }
    {
      bench::Stopwatch stopwatch;
      const auto result = explorer.greedy();
      table.row({bench::fmt(c.apps), bench::fmt(c.ecus), "greedy",
                 result.feasible ? "yes" : "no", bench::fmt(result.cost, 1),
                 bench::fmt(result.candidates_evaluated),
                 bench::fmt(stopwatch.elapsed_ms(), 1)});
    }
    {
      bench::Stopwatch stopwatch;
      const auto result = explorer.simulated_annealing(4'000, 7);
      table.row({bench::fmt(c.apps), bench::fmt(c.ecus), "annealing",
                 result.feasible ? "yes" : "no", bench::fmt(result.cost, 1),
                 bench::fmt(result.candidates_evaluated),
                 bench::fmt(stopwatch.elapsed_ms(), 1)});
    }
    {
      bench::Stopwatch stopwatch;
      const auto result = explorer.genetic(24, 60, 7);
      table.row({bench::fmt(c.apps), bench::fmt(c.ecus), "genetic",
                 result.feasible ? "yes" : "no", bench::fmt(result.cost, 1),
                 bench::fmt(result.candidates_evaluated),
                 bench::fmt(stopwatch.elapsed_ms(), 1)});
    }
  }
  return throughput_experiment() ? 0 : 1;
}
