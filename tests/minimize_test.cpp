// Tests for fault/minimize.hpp: the delta-debugging crash minimizer.
//
// The plan runner is synthetic: a pure predicate over the plan that fails
// only when a specific fault *combination* is present — a babbling idiot
// at magnitude >= 10 together with an ECU crash, observed for at least
// 100ms past the crash. That shape exercises all three passes: ddmin must
// keep exactly two episodes, horizon bisection must find the 100ms-past-
// crash boundary, magnitude bisection must walk the babble down to 10.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/minimize.hpp"

namespace dynaplat::fault {
namespace {

constexpr double kBabbleThreshold = 10.0;
constexpr sim::Duration kObserveWindow = 100 * sim::kMillisecond;

/// Fails with invariant "combo" iff the plan has a strong-enough babble, a
/// crash, and a horizon long enough to observe the interaction.
ProbeVerdict combo_probe(const std::vector<FaultEvent>& plan,
                         sim::Duration horizon) {
  bool babble = false;
  bool crash = false;
  sim::Time crash_at = 0;
  for (const FaultEvent& event : plan) {
    if (event.kind == FaultKind::kBabbleStart &&
        event.magnitude >= kBabbleThreshold && event.at < horizon) {
      babble = true;
    }
    if (event.kind == FaultKind::kEcuCrash && event.at < horizon) {
      crash = true;
      crash_at = event.at;
    }
  }
  ProbeVerdict verdict;
  if (babble && crash && horizon >= crash_at + kObserveWindow) {
    verdict.violated = true;
    verdict.invariant = "combo";
    verdict.detail = "babble+crash interaction";
  }
  return verdict;
}

FaultEvent make_event(sim::Time at, FaultKind kind, const std::string& target,
                      double magnitude = 0.0) {
  FaultEvent event;
  event.at = at;
  event.kind = kind;
  event.target = target;
  event.magnitude = magnitude;
  return event;
}

/// Five episodes (ten events); only the babble + crash pair matters.
std::vector<FaultEvent> noisy_plan() {
  std::vector<FaultEvent> plan;
  plan.push_back(make_event(20 * sim::kMillisecond,
                            FaultKind::kBurstLossStart, "can0", 0.3));
  plan.push_back(
      make_event(120 * sim::kMillisecond, FaultKind::kBurstLossEnd, "can0"));
  plan.push_back(make_event(50 * sim::kMillisecond, FaultKind::kBabbleStart,
                            "can0", 40.0));
  plan.push_back(
      make_event(150 * sim::kMillisecond, FaultKind::kBabbleEnd, "can0"));
  plan.push_back(make_event(80 * sim::kMillisecond,
                            FaultKind::kCorruptionStart, "can0", 0.05));
  plan.push_back(
      make_event(160 * sim::kMillisecond, FaultKind::kCorruptionEnd, "can0"));
  plan.push_back(
      make_event(200 * sim::kMillisecond, FaultKind::kEcuCrash, "A"));
  plan.push_back(
      make_event(400 * sim::kMillisecond, FaultKind::kEcuRestart, "A"));
  plan.push_back(make_event(250 * sim::kMillisecond,
                            FaultKind::kMemoryPressure, "B", 0.5));
  plan.push_back(
      make_event(450 * sim::kMillisecond, FaultKind::kMemoryRelease, "B"));
  return plan;
}

constexpr sim::Duration kHorizon = 2 * sim::kSecond;

std::size_t count_kind(const std::vector<FaultEvent>& plan, FaultKind kind) {
  return static_cast<std::size_t>(
      std::count_if(plan.begin(), plan.end(),
                    [kind](const FaultEvent& e) { return e.kind == kind; }));
}

TEST(Minimizer, ShrinksToTheMinimalEpisodeSubset) {
  Minimizer minimizer(MinimizeConfig{}, combo_probe);
  const Repro repro = minimizer.minimize(noisy_plan(), kHorizon);
  ASSERT_TRUE(repro.failing);
  EXPECT_EQ(repro.invariant, "combo");
  EXPECT_EQ(repro.original_events, 10u);
  // ddmin keeps Start/End pairs together: babble pair + crash pair only.
  EXPECT_EQ(repro.plan.size(), 4u);
  EXPECT_EQ(count_kind(repro.plan, FaultKind::kBabbleStart), 1u);
  EXPECT_EQ(count_kind(repro.plan, FaultKind::kBabbleEnd), 1u);
  EXPECT_EQ(count_kind(repro.plan, FaultKind::kEcuCrash), 1u);
  EXPECT_EQ(count_kind(repro.plan, FaultKind::kEcuRestart), 1u);
  EXPECT_GT(repro.runs_used, 0u);
  // The minimal repro still violates the same invariant when replayed.
  const ProbeVerdict replay = combo_probe(repro.plan, repro.horizon);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.invariant, "combo");
}

TEST(Minimizer, BisectsTheHorizonToTheObservationBoundary) {
  Minimizer minimizer(MinimizeConfig{}, combo_probe);
  const Repro repro = minimizer.minimize(noisy_plan(), kHorizon);
  ASSERT_TRUE(repro.failing);
  // The bisection floor is the last surviving event (the restart at
  // 400ms) — the plan is already minimal, so the horizon never cuts an
  // event off. It must land within one resolution step of that floor,
  // far below the original 2s.
  const sim::Duration floor = 400 * sim::kMillisecond;
  EXPECT_GE(repro.horizon, floor);
  EXPECT_LE(repro.horizon, floor + Minimizer::kHorizonResolution);
  // And the bisected horizon still satisfies the actual failure condition
  // (crash at 200ms observed for >= 100ms).
  EXPECT_GE(repro.horizon, 300 * sim::kMillisecond);
}

TEST(Minimizer, BisectsMagnitudesDownToTheFailureThreshold) {
  Minimizer minimizer(MinimizeConfig{}, combo_probe);
  const Repro repro = minimizer.minimize(noisy_plan(), kHorizon);
  ASSERT_TRUE(repro.failing);
  const auto babble = std::find_if(
      repro.plan.begin(), repro.plan.end(), [](const FaultEvent& e) {
        return e.kind == FaultKind::kBabbleStart;
      });
  ASSERT_NE(babble, repro.plan.end());
  // Started at 40.0; the threshold is 10.0. Four bisection steps should
  // close most of the gap while never dropping below the threshold.
  EXPECT_GE(babble->magnitude, kBabbleThreshold);
  EXPECT_LT(babble->magnitude, 40.0);
}

TEST(Minimizer, PassingPlanReturnsAnEmptyNonFailingRepro) {
  std::vector<FaultEvent> plan = noisy_plan();
  // Remove the crash pair: the combo can no longer fire.
  plan.erase(std::remove_if(plan.begin(), plan.end(),
                            [](const FaultEvent& e) {
                              return e.kind == FaultKind::kEcuCrash ||
                                     e.kind == FaultKind::kEcuRestart;
                            }),
             plan.end());
  Minimizer minimizer(MinimizeConfig{}, combo_probe);
  const Repro repro = minimizer.minimize(plan, kHorizon);
  EXPECT_FALSE(repro.failing);
  EXPECT_TRUE(repro.plan.empty());
  EXPECT_TRUE(repro.invariant.empty());
}

TEST(Minimizer, TargetInvariantMismatchCountsAsNotReproducing) {
  Minimizer minimizer(MinimizeConfig{}, combo_probe);
  const Repro repro =
      minimizer.minimize(noisy_plan(), kHorizon, "some_other_invariant");
  EXPECT_FALSE(repro.failing);
  EXPECT_TRUE(repro.plan.empty());
}

TEST(Minimizer, MinimizationIsBitReproducible) {
  Minimizer first(MinimizeConfig{}, combo_probe);
  Repro repro_1 = first.minimize(noisy_plan(), kHorizon);
  Minimizer second(MinimizeConfig{}, combo_probe);
  Repro repro_2 = second.minimize(noisy_plan(), kHorizon);
  repro_1.seed = repro_2.seed = 42;
  EXPECT_EQ(repro_json(repro_1), repro_json(repro_2));
}

TEST(Minimizer, RespectsTheProbeBudget) {
  MinimizeConfig config;
  config.max_runs = 3;  // enough to pin the target, not enough to minimize
  Minimizer minimizer(config, combo_probe);
  const Repro repro = minimizer.minimize(noisy_plan(), kHorizon);
  ASSERT_TRUE(repro.failing);
  EXPECT_LE(repro.runs_used, 3u);
  // Best-so-far is still a valid repro of the same invariant.
  EXPECT_TRUE(combo_probe(repro.plan, repro.horizon).violated);
}

TEST(ReproJson, RoundTripsIncludingFullRangeSeeds) {
  Minimizer minimizer(MinimizeConfig{}, combo_probe);
  Repro repro = minimizer.minimize(noisy_plan(), kHorizon);
  ASSERT_TRUE(repro.failing);
  repro.seed = 0xDEADBEEFCAFEBABEull;  // above 2^53: breaks via doubles

  Repro loaded;
  ASSERT_TRUE(load_repro(repro_json(repro), &loaded));
  EXPECT_EQ(loaded.failing, repro.failing);
  EXPECT_EQ(loaded.horizon, repro.horizon);
  EXPECT_EQ(loaded.invariant, repro.invariant);
  EXPECT_EQ(loaded.seed, repro.seed);
  EXPECT_EQ(loaded.original_events, repro.original_events);
  ASSERT_EQ(loaded.plan.size(), repro.plan.size());
  for (std::size_t i = 0; i < loaded.plan.size(); ++i) {
    EXPECT_EQ(loaded.plan[i].at, repro.plan[i].at);
    EXPECT_EQ(loaded.plan[i].kind, repro.plan[i].kind);
    EXPECT_EQ(loaded.plan[i].target, repro.plan[i].target);
    EXPECT_DOUBLE_EQ(loaded.plan[i].magnitude, repro.plan[i].magnitude);
  }
  // The loaded repro replays to the same verdict.
  const ProbeVerdict replay = combo_probe(loaded.plan, loaded.horizon);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.invariant, repro.invariant);

  EXPECT_FALSE(load_repro("not json", &loaded));
  // Out-of-range numbers are rejected, not cast.
  EXPECT_FALSE(load_repro(
      R"({"kind": "dynaplat_fault_repro", "horizon_ns": 1e300, "events": []})",
      &loaded));
  EXPECT_FALSE(load_repro(R"({"kind": "dynaplat_fault_repro", "events": [
      {"at_ns": 0, "kind": "bus_partition", "island": [-1]}]})",
                          &loaded));
}

}  // namespace
}  // namespace dynaplat::fault
