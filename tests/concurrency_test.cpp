// Tests for seed streams and for the DSE determinism contract: parallel
// exploration must reproduce the serial result bit-for-bit for the same
// seed, with and without the memoization cache.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dse/exploration.hpp"
#include "model/parser.hpp"
#include "sim/random.hpp"

namespace dynaplat {
namespace dse {

/// White-box probe (friend of Explorer) so the cross-validation tests can
/// drive the genome-native fast path directly against the full verifier.
class TestProbe {
 public:
  using Genome = std::vector<std::size_t>;
  static model::Assignment decode(const Explorer& e, const Genome& g) {
    return e.decode(g);
  }
  static bool fast_feasible(const Explorer& e, const Genome& g) {
    return e.fast_feasible(g);
  }
  static double fast_cost(const Explorer& e, const Genome& g) {
    return e.fast_feasible(g)
               ? e.genome_soft_cost(g)
               : e.weights_.infeasible_penalty + e.genome_soft_cost(g);
  }
};

}  // namespace dse

namespace {

// --- Seed streams -------------------------------------------------------------

TEST(RandomStream, DeterministicAndDistinct) {
  sim::Random a0 = sim::Random::stream(99, 0);
  sim::Random a0_again = sim::Random::stream(99, 0);
  sim::Random a1 = sim::Random::stream(99, 1);
  sim::Random b0 = sim::Random::stream(100, 0);
  const std::uint64_t v0 = a0.next_u64();
  EXPECT_EQ(v0, a0_again.next_u64());  // pure function of (seed, stream)
  EXPECT_NE(v0, a1.next_u64());        // streams decorrelated
  EXPECT_NE(v0, b0.next_u64());        // seeds decorrelated
  sim::Random base(99);
  EXPECT_NE(sim::Random::stream(99, 0).next_u64(), base.next_u64());
}

// Regression: the original stream() mixed seed and stream_id additively
// (seed + stream_id * golden_ratio), so stream(s + gamma, i) collided with
// stream(s, i + 1) — adjacent master seeds shared whole child streams. The
// joint hash must keep every nearby (seed, stream) pair fully decorrelated
// over a real draw prefix, not just the first value.
TEST(RandomStream, AdjacentSeedsShareNoChildStreams) {
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  constexpr int kDraws = 64;
  const auto prefix = [](sim::Random rng) {
    std::vector<std::uint64_t> draws;
    draws.reserve(kDraws);
    for (int i = 0; i < kDraws; ++i) draws.push_back(rng.next_u64());
    return draws;
  };
  for (const std::uint64_t seed : {1ull, 99ull, 0xDEADBEEFull}) {
    // The historical collision pair, exactly.
    EXPECT_NE(prefix(sim::Random::stream(seed + kGolden, 0)),
              prefix(sim::Random::stream(seed, 1)));
    // And a dense neighborhood: nearby seeds crossed with nearby streams.
    std::vector<std::vector<std::uint64_t>> seen;
    for (std::uint64_t ds = 0; ds < 4; ++ds) {
      for (std::uint64_t id = 0; id < 4; ++id) {
        seen.push_back(prefix(sim::Random::stream(seed + ds, id)));
      }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      for (std::size_t j = i + 1; j < seen.size(); ++j) {
        EXPECT_NE(seen[i], seen[j]) << "seed=" << seed << " pair " << i
                                    << "," << j;
      }
    }
  }
}

// --- DSE determinism contract -------------------------------------------------

model::ParsedSystem dse_system(int n_apps, int n_ecus) {
  std::string dsl = "network Net kind=ethernet bitrate=1G\n";
  for (int e = 0; e < n_ecus; ++e) {
    dsl += "ecu E" + std::to_string(e) +
           " mips=1000 memory=64M asil=D network=Net\n";
  }
  for (int a = 0; a + 1 < n_apps; ++a) {
    dsl += "interface I" + std::to_string(a) +
           " paradigm=event payload=64 period=10ms\n";
  }
  for (int a = 0; a < n_apps; ++a) {
    dsl += "app A" + std::to_string(a) +
           " class=deterministic asil=B memory=4M\n";
    dsl += "  task t period=10ms wcet=2M priority=" + std::to_string(a % 8) +
           "\n";
    if (a > 0) dsl += "  consumes I" + std::to_string(a - 1) + "\n";
    if (a + 1 < n_apps) dsl += "  provides I" + std::to_string(a) + "\n";
  }
  return model::parse_system(dsl);
}

void expect_identical(const dse::ExplorationResult& serial,
                      const dse::ExplorationResult& parallel) {
  EXPECT_EQ(serial.cost, parallel.cost);  // bit-for-bit, no tolerance
  EXPECT_EQ(serial.feasible, parallel.feasible);
  EXPECT_EQ(serial.assignment.placement, parallel.assignment.placement);
  EXPECT_EQ(serial.candidates_evaluated, parallel.candidates_evaluated);
}

TEST(DseDeterminism, ExhaustiveParallelMatchesSerial) {
  auto sys = dse_system(6, 3);
  dse::Explorer serial_explorer(sys.model);
  dse::Explorer parallel_explorer(sys.model);
  expect_identical(serial_explorer.exhaustive(2'000'000, 0),
                   parallel_explorer.exhaustive(2'000'000, 4));
}

TEST(DseDeterminism, GeneticParallelMatchesSerial) {
  auto sys = dse_system(8, 4);
  dse::Explorer serial_explorer(sys.model);
  dse::Explorer parallel_explorer(sys.model);
  expect_identical(serial_explorer.genetic(16, 25, 7, 0),
                   parallel_explorer.genetic(16, 25, 7, 4));
}

TEST(DseDeterminism, GeneticCacheDoesNotChangeResults) {
  auto sys = dse_system(8, 4);
  dse::Explorer cached(sys.model);
  dse::Explorer uncached(sys.model);
  uncached.set_cache_enabled(false);
  const auto with_cache = cached.genetic(16, 25, 7, 4);
  const auto without_cache = uncached.genetic(16, 25, 7, 0);
  EXPECT_EQ(with_cache.cost, without_cache.cost);
  EXPECT_EQ(with_cache.assignment.placement,
            without_cache.assignment.placement);
  EXPECT_EQ(without_cache.cache_hits, 0u);
  EXPECT_GT(cached.cache_size(), 0u);
}

TEST(DseDeterminism, AnnealingChainsMatchAcrossThreadCounts) {
  auto sys = dse_system(8, 4);
  dse::Explorer serial_explorer(sys.model);
  dse::Explorer parallel_explorer(sys.model);
  expect_identical(serial_explorer.simulated_annealing(1'500, 13, 4, 0),
                   parallel_explorer.simulated_annealing(1'500, 13, 4, 4));
}

TEST(DseDeterminism, RepeatedRunHitsMemoCache) {
  auto sys = dse_system(8, 4);
  dse::Explorer explorer(sys.model);
  const auto first = explorer.genetic(16, 25, 7, 0);
  const auto second = explorer.genetic(16, 25, 7, 0);
  // Identical seed => identical genome sequence => pure cache replay.
  EXPECT_EQ(second.cache_hits, second.candidates_evaluated);
  EXPECT_EQ(first.cost, second.cost);
  explorer.clear_cache();
  EXPECT_EQ(explorer.cache_size(), 0u);
}

// --- Fast-path cross-validation ----------------------------------------------
//
// The memoized evaluation path judges genomes with compiled per-(app, ECU) /
// per-(ECU pair) tables instead of running the string-keyed verifier. It
// must agree with feasible(decode(g)) and cost(decode(g)) bit for bit, on
// systems engineered so every ERROR rule actually fires for some genomes.
// Returns {feasible, infeasible} counts so callers can assert both verdicts
// were exercised.
std::pair<int, int> cross_validate(const model::SystemModel& system,
                                   std::uint64_t samples,
                                   std::uint64_t seed) {
  dse::Explorer explorer(system);
  const std::size_t n_apps = system.apps().size();
  const std::size_t n_ecus = system.ecus().size();
  int feasible_count = 0;
  int infeasible_count = 0;

  const auto check = [&](const std::vector<std::size_t>& genome) {
    const auto assignment = dse::TestProbe::decode(explorer, genome);
    const bool slow = explorer.feasible(assignment);
    const bool fast = dse::TestProbe::fast_feasible(explorer, genome);
    ASSERT_EQ(slow, fast);
    const double slow_cost = explorer.cost(assignment);
    const double fast_cost = dse::TestProbe::fast_cost(explorer, genome);
    ASSERT_EQ(slow_cost, fast_cost);  // bit-for-bit, no tolerance
    if (slow) {
      ++feasible_count;
    } else {
      ++infeasible_count;
    }
  };

  // Exhaust small spaces; sample large ones.
  std::uint64_t space = 1;
  for (std::size_t a = 0; a < n_apps && space <= 4096; ++a) space *= n_ecus;
  if (space <= 4096) {
    std::vector<std::size_t> genome(n_apps, 0);
    for (std::uint64_t k = 0; k < space; ++k) {
      check(genome);
      for (std::size_t d = 0; d < n_apps; ++d) {
        if (++genome[d] < n_ecus) break;
        genome[d] = 0;
      }
    }
  } else {
    sim::Random rng(seed);
    std::vector<std::size_t> genome(n_apps);
    for (std::uint64_t k = 0; k < samples; ++k) {
      for (auto& gene : genome) {
        gene = static_cast<std::size_t>(rng.next_below(n_ecus));
      }
      check(genome);
    }
  }
  return {feasible_count, infeasible_count};
}

TEST(DseFastPath, MatchesVerifierOnBaselineChain) {
  auto sys = dse_system(6, 3);  // full 3^6 sweep
  const auto [ok, bad] = cross_validate(sys.model, 0, 0);
  EXPECT_GT(ok, 0);
  EXPECT_GT(bad, 0);  // six 0.2-util apps overload any single ECU
}

TEST(DseFastPath, MatchesVerifierOnHeterogeneousFarm) {
  // Every per-(app, ECU) and per-ECU rule can fire: an uncertified ECU
  // (asil=A), a POSIX ECU (rtos rule), an MMU-less ECU, a memory-tight ECU,
  // plus a replicated app and a nondeterministic one.
  const std::string dsl =
      "network Net kind=ethernet bitrate=1G\n"
      "ecu Strong mips=2000 memory=256M asil=D network=Net\n"
      "ecu Uncert mips=2000 memory=256M asil=A network=Net\n"
      "ecu Posix  mips=2000 memory=256M asil=D os=posix network=Net\n"
      "ecu NoMmu  mips=2000 memory=256M asil=D mmu=no network=Net\n"
      "ecu Tiny   mips=2000 memory=6M   asil=D network=Net\n"
      "interface Cmd paradigm=event payload=128 period=10ms\n"
      "app Pilot class=deterministic asil=C memory=4M replicas=2\n"
      "  task t period=10ms wcet=2M\n"
      "  provides Cmd\n"
      "app Logger class=nondeterministic asil=QM memory=4M\n"
      "  task t period=20ms wcet=1M\n"
      "  consumes Cmd\n"
      "app Filter class=deterministic asil=B memory=4M\n"
      "  task t period=10ms wcet=3M\n"
      "  consumes Cmd\n";
  const auto [ok, bad] = cross_validate(model::parse_system(dsl).model, 0, 0);
  EXPECT_GT(ok, 0);
  EXPECT_GT(bad, 0);
}

TEST(DseFastPath, MatchesVerifierOnNetworkRules) {
  // Two disjoint networks (unreachable pairs), a CAN segment whose latency
  // floor breaks a tight requirement, and stream bandwidth that only fits
  // when the heavy streams stay co-located.
  const std::string dsl =
      "network Eth kind=ethernet bitrate=10M\n"
      "network Bus kind=can bitrate=500K\n"
      "ecu E0 mips=2000 memory=256M asil=D network=Eth\n"
      "ecu E1 mips=2000 memory=256M asil=D network=Eth\n"
      "ecu C0 mips=2000 memory=256M asil=D network=Bus\n"
      "ecu C1 mips=2000 memory=256M asil=D network=Bus\n"
      "interface Video paradigm=stream payload=1400 period=1ms "
      "bandwidth=6M\n"
      "interface Radar paradigm=stream payload=1400 period=1ms "
      "bandwidth=4M\n"
      "interface Brake paradigm=event payload=256 max_latency=100us\n"
      "app Cam asil=B memory=4M\n"
      "  task t period=10ms wcet=1M\n"
      "  provides Video\n"
      "app Rad asil=B memory=4M\n"
      "  task t period=10ms wcet=1M\n"
      "  provides Radar\n"
      "app Fuse asil=B memory=4M\n"
      "  task t period=10ms wcet=1M\n"
      "  consumes Video\n"
      "  consumes Radar\n"
      "  provides Brake\n"
      "app Act asil=B memory=4M\n"
      "  task t period=10ms wcet=1M\n"
      "  consumes Brake\n";
  const auto [ok, bad] = cross_validate(model::parse_system(dsl).model, 0, 0);
  EXPECT_GT(ok, 0);
  EXPECT_GT(bad, 0);
}

TEST(DseFastPath, MatchesVerifierOnLargeSampledSystem) {
  auto sys = dse_system(12, 6);  // 6^12 genomes: randomized sampling
  const auto [ok, bad] = cross_validate(sys.model, 400, 99);
  EXPECT_GT(ok + bad, 0);
}

TEST(DseFastPath, StaticModelErrorRejectsEveryGenome) {
  // replicas > |ecus| makes redundancy.placement fire for every decoded
  // genome — the fast path's model-level verdict must agree.
  const std::string dsl =
      "network Net kind=ethernet bitrate=1G\n"
      "ecu E0 mips=2000 memory=256M asil=D network=Net\n"
      "ecu E1 mips=2000 memory=256M asil=D network=Net\n"
      "app Trip asil=B memory=4M replicas=3\n"
      "  task t period=10ms wcet=1M\n";
  const auto [ok, bad] = cross_validate(model::parse_system(dsl).model, 0, 0);
  EXPECT_EQ(ok, 0);
  EXPECT_EQ(bad, 2);
}

TEST(DseDeterminism, AnnealingMultiChainNotWorseThanSingle) {
  auto sys = dse_system(8, 4);
  dse::Explorer explorer(sys.model);
  const auto single = explorer.simulated_annealing(1'500, 13, 1, 0);
  const auto multi = explorer.simulated_annealing(1'500, 13, 4, 2);
  // Chain 0 of the multi-chain run is the single-chain run; best-of-chains
  // can only improve on it.
  EXPECT_LE(multi.cost, single.cost + 1e-9);
}

}  // namespace
}  // namespace dynaplat
