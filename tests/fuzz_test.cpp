// Tests for fault/fuzz.hpp: the coverage-guided campaign scheduler.
//
// The scenario runner here is synthetic — a pure function mapping config
// fields to coverage keys — so the tests pin the *search* contract
// (determinism, thread-count invariance, corpus admission, journaling)
// without paying for platform simulation. The real-platform integration
// lives in bench/bench_fault.cpp --fuzz and examples/chaos_campaign.cpp
// --fuzz.
#include <gtest/gtest.h>

#include <string>

#include "fault/fuzz.hpp"
#include "obs/json.hpp"

namespace dynaplat::fault {
namespace {

/// Pure function of the config: deterministic coverage, fingerprint and
/// verdict, cheap enough to run hundreds of times per test.
FuzzRunResult synthetic_run(const CampaignConfig& config) {
  FuzzRunResult result;
  result.coverage.hit("run.any");
  result.coverage.hit("seed.bucket." + std::to_string(config.seed % 5));
  // Count scales with episodes so hit-count bucket upgrades are reachable.
  result.coverage.hit("episodes.count",
                      static_cast<std::uint64_t>(config.episodes));
  if (config.weight_overrun > 0.0) result.coverage.hit("family.overrun");
  if (config.magnitude_scale > 2.0) result.coverage.hit("scale.high");
  if (config.partition_fraction > 0.0) result.coverage.hit("topology.forced");
  if (config.episodes > 10) result.coverage.hit("episodes.many");
  if (config.horizon > 2 * sim::kSecond) result.coverage.hit("horizon.long");

  std::uint64_t fp = 0xcbf29ce484222325ull;
  const auto mix = [&fp](std::uint64_t word) {
    fp ^= word;
    fp *= 0x100000001b3ull;
  };
  mix(config.seed);
  mix(static_cast<std::uint64_t>(config.episodes));
  mix(static_cast<std::uint64_t>(config.horizon));
  mix(static_cast<std::uint64_t>(config.magnitude_scale * 1000.0));
  result.fingerprint = fp;

  if (config.magnitude_scale > 4.0) {
    result.invariants_passed = false;
    result.violated = "magnitude_bound";
    result.detail = "synthetic violation above scale 4";
  }
  return result;
}

FuzzConfig small_config(std::uint64_t master_seed = 7) {
  FuzzConfig config;
  config.master_seed = master_seed;
  config.base.seed = 1;
  config.base.weight_overrun = 0.0;
  config.rounds = 6;
  config.batch = 6;
  return config;
}

TEST(FuzzScheduler, SameMasterSeedIsBitIdentical) {
  FuzzScheduler first(small_config(), synthetic_run);
  first.run();
  FuzzScheduler second(small_config(), synthetic_run);
  second.run();
  EXPECT_EQ(first.journal_json(), second.journal_json());
  EXPECT_EQ(first.coverage().fingerprint(), second.coverage().fingerprint());
  EXPECT_EQ(first.corpus().size(), second.corpus().size());

  FuzzScheduler other(small_config(8), synthetic_run);
  other.run();
  EXPECT_NE(first.journal_json(), other.journal_json());
}

TEST(FuzzScheduler, ShardCountDoesNotChangeTheSearch) {
  FuzzScheduler serial(small_config(), synthetic_run);
  serial.run();
  for (const std::size_t threads : {2u, 5u}) {
    FuzzConfig config = small_config();
    config.threads = threads;
    FuzzScheduler threaded(config, synthetic_run);
    threaded.run();
    EXPECT_EQ(threaded.journal_json(), serial.journal_json())
        << "threads=" << threads;
    EXPECT_EQ(threaded.coverage().fingerprint(),
              serial.coverage().fingerprint());
  }
}

TEST(FuzzScheduler, CorpusGrowsBeyondTheSeedEntry) {
  FuzzScheduler scheduler(small_config(), synthetic_run);
  scheduler.run();
  // Reseed mutations alone change seed.bucket.*, so the search must admit
  // more than the bootstrap entry.
  EXPECT_GT(scheduler.corpus().size(), 1u);
  ASSERT_FALSE(scheduler.corpus().empty());
  EXPECT_EQ(scheduler.corpus()[0].round, -1);
  EXPECT_EQ(scheduler.corpus()[0].op, MutationOp::kSeedEntry);
  for (const CorpusEntry& entry : scheduler.corpus()) {
    EXPECT_LT(entry.parent, scheduler.corpus().size());
  }
}

TEST(FuzzScheduler, TimelineIsMonotoneAndMatchesExecution) {
  FuzzScheduler scheduler(small_config(), synthetic_run);
  scheduler.run();
  const std::size_t expected = 1 + 6u * 6u;  // bootstrap + rounds * batch
  EXPECT_EQ(scheduler.executed(), expected);
  EXPECT_EQ(scheduler.journal().size(), expected);
  ASSERT_EQ(scheduler.timeline().size(), expected);
  for (std::size_t i = 1; i < scheduler.timeline().size(); ++i) {
    EXPECT_GE(scheduler.timeline()[i], scheduler.timeline()[i - 1]);
  }
  EXPECT_EQ(scheduler.timeline().back(), scheduler.unique_keys());
  EXPECT_EQ(scheduler.rounds_completed(), 6);
}

TEST(FuzzScheduler, FailingCandidatesAreRetainedUpToTheCap) {
  FuzzConfig config = small_config();
  config.base.magnitude_scale = 5.0;  // the seed entry itself violates
  config.max_failures = 3;
  FuzzScheduler scheduler(config, synthetic_run);
  scheduler.run();
  ASSERT_FALSE(scheduler.failures().empty());
  EXPECT_LE(scheduler.failures().size(), 3u);
  EXPECT_EQ(scheduler.failures()[0].violated, "magnitude_bound");
  EXPECT_GT(scheduler.failures()[0].config.magnitude_scale, 4.0);
  // The journal records the verdict for the failing bootstrap too.
  EXPECT_FALSE(scheduler.journal()[0].invariants_passed);
}

TEST(FuzzScheduler, JournalJsonIsAParsableReplayDocument) {
  FuzzScheduler scheduler(small_config(), synthetic_run);
  scheduler.run();
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(scheduler.journal_json(), &doc));
  EXPECT_EQ(doc.at("kind").string, "dynaplat_fuzz_journal");
  ASSERT_EQ(doc.at("records").array.size(), scheduler.executed());
  // Every journal config must replay: round-trip the last one through its
  // JSON form and check the re-run reproduces the recorded scenario.
  const JournalRecord& last = scheduler.journal().back();
  CampaignConfig replayed;
  ASSERT_TRUE(campaign_config_from_json(campaign_config_json(last.config),
                                        &replayed));
  EXPECT_EQ(synthetic_run(replayed).fingerprint,
            synthetic_run(last.config).fingerprint);
  EXPECT_EQ(synthetic_run(replayed).invariants_passed,
            last.invariants_passed);
}

TEST(FuzzScheduler, BudgetZeroRoundsStillBootstraps) {
  FuzzConfig config = small_config();
  config.rounds = 0;
  FuzzScheduler scheduler(config, synthetic_run);
  scheduler.run();
  EXPECT_EQ(scheduler.executed(), 1u);  // the base config always runs
  EXPECT_EQ(scheduler.corpus().size(), 1u);
}

TEST(CampaignConfigJson, RoundTripsFullRangeSeeds) {
  CampaignConfig config;
  config.seed = 0xDEADBEEFCAFEBABEull;  // above 2^53: breaks via doubles
  config.start = 200 * sim::kMillisecond;
  config.horizon = 3 * sim::kSecond;
  config.episodes = 17;
  config.min_duration = 5 * sim::kMillisecond;
  config.max_duration = 410 * sim::kMillisecond;
  config.weight_crash = 0.5;
  config.weight_partition = 2.0;
  config.weight_babble = 0.0;
  config.weight_burst = 8.0;
  config.weight_corruption = 0.25;
  config.weight_overrun = 4.0;
  config.weight_memory = 1.0;
  config.magnitude_scale = 3.5;
  config.partition_fraction = 0.75;

  CampaignConfig parsed;
  ASSERT_TRUE(campaign_config_from_json(campaign_config_json(config),
                                        &parsed));
  EXPECT_EQ(parsed.seed, config.seed);
  EXPECT_EQ(parsed.start, config.start);
  EXPECT_EQ(parsed.horizon, config.horizon);
  EXPECT_EQ(parsed.episodes, config.episodes);
  EXPECT_EQ(parsed.min_duration, config.min_duration);
  EXPECT_EQ(parsed.max_duration, config.max_duration);
  EXPECT_DOUBLE_EQ(parsed.weight_crash, config.weight_crash);
  EXPECT_DOUBLE_EQ(parsed.weight_partition, config.weight_partition);
  EXPECT_DOUBLE_EQ(parsed.weight_babble, config.weight_babble);
  EXPECT_DOUBLE_EQ(parsed.weight_burst, config.weight_burst);
  EXPECT_DOUBLE_EQ(parsed.weight_corruption, config.weight_corruption);
  EXPECT_DOUBLE_EQ(parsed.weight_overrun, config.weight_overrun);
  EXPECT_DOUBLE_EQ(parsed.weight_memory, config.weight_memory);
  EXPECT_DOUBLE_EQ(parsed.magnitude_scale, config.magnitude_scale);
  EXPECT_DOUBLE_EQ(parsed.partition_fraction, config.partition_fraction);
  // And the round trip is a fixed point.
  EXPECT_EQ(campaign_config_json(parsed), campaign_config_json(config));
}

TEST(CampaignConfigJson, RejectsMalformedInput) {
  CampaignConfig out;
  EXPECT_FALSE(campaign_config_from_json("not json", &out));
  EXPECT_FALSE(campaign_config_from_json("{}", &out));
  // A number no integer field can hold is rejected, not cast.
  EXPECT_FALSE(campaign_config_from_json(
      R"({"seed": "1", "horizon_ns": 1e300})", &out));
  EXPECT_FALSE(
      campaign_config_from_json(R"({"seed": "1", "episodes": 1e10})", &out));
}

}  // namespace
}  // namespace dynaplat::fault
