// Tests for schedulability analysis, TT table synthesis, admission control,
// the backend schedule server, and the design-space explorer.
#include <gtest/gtest.h>

#include "dse/admission.hpp"
#include "dse/exploration.hpp"
#include "dse/schedulability.hpp"
#include <cmath>
#include <set>

#include "model/parser.hpp"

namespace dynaplat::dse {
namespace {

AnalysisTask task(const std::string& name, sim::Duration period,
                  sim::Duration wcet, int priority, bool deterministic = true) {
  AnalysisTask t;
  t.name = name;
  t.period = period;
  t.deadline = period;
  t.wcet = wcet;
  t.priority = priority;
  t.deterministic = deterministic;
  return t;
}

// --- Response-time analysis ---------------------------------------------------

TEST(Rta, ClassicExampleMatchesHandComputation) {
  // T1 = (C=1, T=4, prio 0), T2 = (C=2, T=6, prio 1), T3 = (C=3, T=12).
  // Known RTA results: R1 = 1, R2 = 3, R3 = 10 (ms).
  std::vector<AnalysisTask> tasks{
      task("t1", 4 * sim::kMillisecond, sim::kMillisecond, 0),
      task("t2", 6 * sim::kMillisecond, 2 * sim::kMillisecond, 1),
      task("t3", 12 * sim::kMillisecond, 3 * sim::kMillisecond, 2)};
  const auto response = response_time_analysis(tasks);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ((*response)[0], sim::kMillisecond);
  EXPECT_EQ((*response)[1], 3 * sim::kMillisecond);
  EXPECT_EQ((*response)[2], 10 * sim::kMillisecond);
}

TEST(Rta, InfeasibleSetRejected) {
  std::vector<AnalysisTask> tasks{
      task("t1", 10 * sim::kMillisecond, 6 * sim::kMillisecond, 0),
      task("t2", 10 * sim::kMillisecond, 6 * sim::kMillisecond, 1)};
  EXPECT_FALSE(response_time_analysis(tasks).has_value());
}

TEST(Rta, DeadlineShorterThanPeriodHonoured) {
  auto t1 = task("t1", 10 * sim::kMillisecond, 2 * sim::kMillisecond, 0);
  auto t2 = task("t2", 10 * sim::kMillisecond, 3 * sim::kMillisecond, 1);
  t2.deadline = 4 * sim::kMillisecond;  // R2 = 5ms > 4ms
  EXPECT_FALSE(response_time_analysis({t1, t2}).has_value());
  t2.deadline = 5 * sim::kMillisecond;
  EXPECT_TRUE(response_time_analysis({t1, t2}).has_value());
}

TEST(Schedulability, EqualPrioritiesInterfereBothWays) {
  // The scheduler runs equal priorities in release order, so either tied
  // task can delay the other: with b's job queued first, b runs 0-7 ms and
  // a ends at 13 ms, past its 10 ms deadline. Both list orders say so.
  const auto a = task("a", 10 * sim::kMillisecond, 6 * sim::kMillisecond, 5);
  const auto b = task("b", 20 * sim::kMillisecond, 7 * sim::kMillisecond, 5);
  EXPECT_FALSE(response_time_analysis({a, b}).has_value());
  EXPECT_FALSE(response_time_analysis({b, a}).has_value());
  EXPECT_FALSE(admit({a}, {b}).admitted);
  EXPECT_FALSE(admit({b}, {a}).admitted);

  // A feasible tie: each task's response time counts the other's job, in
  // either order.
  const auto c = task("c", 10 * sim::kMillisecond, 2 * sim::kMillisecond, 5);
  const auto d = task("d", 20 * sim::kMillisecond, 3 * sim::kMillisecond, 5);
  const auto cd = response_time_analysis({c, d});
  const auto dc = response_time_analysis({d, c});
  ASSERT_TRUE(cd.has_value());
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ((*cd)[0], 5 * sim::kMillisecond);
  EXPECT_EQ((*cd)[1], 5 * sim::kMillisecond);
  EXPECT_EQ(*cd, *dc);
}

// --- Hyperperiod ------------------------------------------------------------------

TEST(Hyperperiod, LcmOfPeriods) {
  std::vector<AnalysisTask> tasks{
      task("a", 10 * sim::kMillisecond, 1, 0),
      task("b", 15 * sim::kMillisecond, 1, 1)};
  EXPECT_EQ(hyperperiod(tasks), 30 * sim::kMillisecond);
}

TEST(Hyperperiod, SaturatesAtCap) {
  std::vector<AnalysisTask> tasks{task("a", 7'777'777, 1, 0),
                                  task("b", 9'999'991, 1, 1)};
  EXPECT_LE(hyperperiod(tasks, sim::kSecond), sim::kSecond);
}

// --- TT synthesis ------------------------------------------------------------------

TEST(TtSynthesis, PlacesAllJobsWithinDeadlines) {
  std::vector<AnalysisTask> tasks{
      task("fast", 5 * sim::kMillisecond, sim::kMillisecond, 0),
      task("slow", 10 * sim::kMillisecond, 3 * sim::kMillisecond, 1)};
  const auto table = synthesize_tt_table(tasks);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->cycle, 10 * sim::kMillisecond);
  // 2 jobs of fast + 1 job of slow.
  EXPECT_EQ(table->windows.size(), 3u);
  // Windows must not overlap.
  for (std::size_t i = 1; i < table->windows.size(); ++i) {
    EXPECT_GE(table->windows[i].offset,
              table->windows[i - 1].offset + table->windows[i - 1].length);
  }
  // Every job inside its release/deadline window.
  for (const auto& window : table->windows) {
    const auto& t = tasks[window.task];
    const sim::Time release = (window.offset / t.period) * t.period;
    EXPECT_GE(window.offset, release);
    EXPECT_LE(window.offset + window.length, release + t.deadline);
  }
  EXPECT_NEAR(table->reserved_fraction(), 0.5, 1e-9);
}

TEST(TtSynthesis, OverloadFails) {
  std::vector<AnalysisTask> tasks{
      task("a", 10 * sim::kMillisecond, 6 * sim::kMillisecond, 0),
      task("b", 10 * sim::kMillisecond, 6 * sim::kMillisecond, 1)};
  EXPECT_FALSE(synthesize_tt_table(tasks).has_value());
}

TEST(TtSynthesis, IgnoresNonDeterministicTasks) {
  std::vector<AnalysisTask> tasks{
      task("da", 10 * sim::kMillisecond, 2 * sim::kMillisecond, 0),
      task("nda", 10 * sim::kMillisecond, 20 * sim::kMillisecond, 9, false)};
  const auto table = synthesize_tt_table(tasks);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->windows.size(), 1u);
}

TEST(TtSynthesis, ValidatedBySimulation) {
  std::vector<AnalysisTask> tasks{
      task("fast", 5 * sim::kMillisecond, sim::kMillisecond, 0),
      task("slow", 15 * sim::kMillisecond, 4 * sim::kMillisecond, 1)};
  // Pad windows for the 100 MIPS target's context-switch cost (10 us), as
  // the ScheduleServer does.
  const auto table =
      synthesize_tt_table(tasks, 0, 20 * sim::kMicrosecond);
  ASSERT_TRUE(table.has_value());
  std::string why;
  EXPECT_TRUE(validate_by_simulation(*table, tasks, 100, &why)) << why;
}

TEST(TtSynthesis, UnpaddedTableFailsSimulationOnSlowCpu) {
  // The ablation of the padding decision: exact-WCET windows cannot absorb
  // dispatch overhead, and the backend's simulation validation catches it
  // before the table ever ships to the vehicle.
  std::vector<AnalysisTask> tasks{
      task("fast", 5 * sim::kMillisecond, sim::kMillisecond, 0),
      task("slow", 15 * sim::kMillisecond, 4 * sim::kMillisecond, 1)};
  const auto table = synthesize_tt_table(tasks);
  ASSERT_TRUE(table.has_value());
  EXPECT_FALSE(validate_by_simulation(*table, tasks, 100));
}

// --- Admission control ----------------------------------------------------------------

TEST(Admission, AcceptsFeasibleAddition) {
  std::vector<AnalysisTask> existing{
      task("a", 10 * sim::kMillisecond, 3 * sim::kMillisecond, 0)};
  std::vector<AnalysisTask> incoming{
      task("b", 20 * sim::kMillisecond, 4 * sim::kMillisecond, 1)};
  const auto decision = admit(existing, incoming);
  EXPECT_TRUE(decision.admitted);
  EXPECT_GT(decision.analysis_instructions, 0u);
}

TEST(Admission, RejectsOverload) {
  std::vector<AnalysisTask> existing{
      task("a", 10 * sim::kMillisecond, 7 * sim::kMillisecond, 0)};
  std::vector<AnalysisTask> incoming{
      task("b", 10 * sim::kMillisecond, 5 * sim::kMillisecond, 1)};
  const auto decision = admit(existing, incoming);
  EXPECT_FALSE(decision.admitted);
}

TEST(Admission, CostGrowsWithTaskCount) {
  EXPECT_GT(local_test_cost(100), local_test_cost(10));
}

// --- Backend schedule server --------------------------------------------------------------

TEST(ScheduleServer, SynthesizesAndValidates) {
  ScheduleServer server;
  std::vector<AnalysisTask> tasks{
      task("ctl", 10 * sim::kMillisecond, 2 * sim::kMillisecond, 0),
      task("adas", 20 * sim::kMillisecond, 5 * sim::kMillisecond, 1)};
  const auto artifact = server.synthesize(tasks, 100);
  EXPECT_TRUE(artifact.feasible);
  EXPECT_TRUE(artifact.validated);
  EXPECT_GT(artifact.synthesis_instructions,
            local_test_cost(tasks.size()));
}

TEST(ScheduleServer, ReportsInfeasibleSets) {
  ScheduleServer server;
  std::vector<AnalysisTask> tasks{
      task("x", 10 * sim::kMillisecond, 11 * sim::kMillisecond, 0)};
  const auto artifact = server.synthesize(tasks, 100);
  EXPECT_FALSE(artifact.feasible);
}

// --- Explorer ---------------------------------------------------------------------------------

model::ParsedSystem explorer_system(int n_apps, int n_ecus) {
  std::string dsl = "network Net kind=ethernet bitrate=1G\n";
  for (int e = 0; e < n_ecus; ++e) {
    dsl += "ecu E" + std::to_string(e) +
           " mips=1000 memory=64M asil=D network=Net\n";
  }
  for (int a = 0; a < n_apps; ++a) {
    dsl += "app A" + std::to_string(a) +
           " class=deterministic asil=B memory=4M\n";
    dsl += "  task t period=10ms wcet=2M priority=" + std::to_string(a % 8) +
           "\n";  // 2ms per 10ms => utilization 0.2 each
  }
  return model::parse_system(dsl);
}

TEST(Explorer, ExhaustiveFindsFeasibleMapping) {
  auto sys = explorer_system(4, 2);
  Explorer explorer(sys.model);
  const auto result = explorer.exhaustive();
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.candidates_evaluated, 16u);  // 2^4
}

TEST(Explorer, GreedyIsFeasibleAndCheap) {
  auto sys = explorer_system(6, 3);
  Explorer explorer(sys.model);
  const auto result = explorer.greedy();
  EXPECT_TRUE(result.feasible);
  EXPECT_LE(result.candidates_evaluated, 18u);
}

TEST(Explorer, AnnealingNotWorseThanGreedy) {
  auto sys = explorer_system(6, 3);
  Explorer explorer(sys.model);
  const auto greedy = explorer.greedy();
  const auto annealed = explorer.simulated_annealing(2'000, 7);
  EXPECT_TRUE(annealed.feasible);
  EXPECT_LE(annealed.cost, greedy.cost + 1e-9);
}

TEST(Explorer, GeneticFindsFeasibleMapping) {
  auto sys = explorer_system(6, 3);
  Explorer explorer(sys.model);
  const auto result = explorer.genetic(16, 30, 11);
  EXPECT_TRUE(result.feasible);
}

TEST(Explorer, ExhaustiveOptimumLowerBoundsHeuristics) {
  auto sys = explorer_system(5, 2);
  Explorer explorer(sys.model);
  const auto exact = explorer.exhaustive();
  const auto greedy = explorer.greedy();
  const auto annealed = explorer.simulated_annealing(3'000, 3);
  EXPECT_LE(exact.cost, greedy.cost + 1e-9);
  EXPECT_LE(exact.cost, annealed.cost + 1e-9);
}

TEST(Explorer, OverloadedSystemReportedInfeasible) {
  // 8 apps x 0.6 utilization on 1 ECU can never fit.
  std::string dsl =
      "network Net kind=ethernet\n"
      "ecu E0 mips=1000 memory=64M asil=D network=Net\n";
  for (int a = 0; a < 8; ++a) {
    dsl += "app A" + std::to_string(a) + " class=deterministic asil=B\n";
    dsl += "  task t period=10ms wcet=6M priority=1\n";
  }
  auto sys = model::parse_system(dsl);
  Explorer explorer(sys.model);
  EXPECT_FALSE(explorer.exhaustive().feasible);
}

TEST(Explorer, ReplicatedAppsLandOnDistinctEcus) {
  std::string dsl =
      "network Net kind=ethernet\n"
      "ecu E0 mips=1000 memory=64M asil=D network=Net\n"
      "ecu E1 mips=1000 memory=64M asil=D network=Net\n"
      "app Critical class=deterministic asil=D replicas=2 memory=4M\n"
      "  task t period=10ms wcet=1M priority=1\n";
  auto sys = model::parse_system(dsl);
  Explorer explorer(sys.model);
  const auto result = explorer.exhaustive();
  ASSERT_TRUE(result.feasible);
  const auto& hosts = result.assignment.placement.at("Critical");
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_NE(hosts[0], hosts[1]);
}

// Parameterized sweep: utilization level at which greedy still packs onto
// the minimum number of ECUs.
class GreedyPacking : public ::testing::TestWithParam<int> {};

TEST_P(GreedyPacking, UsesMinimalEcuCount) {
  const int util_percent = GetParam();
  std::string dsl = "network Net kind=ethernet\n";
  for (int e = 0; e < 4; ++e) {
    dsl += "ecu E" + std::to_string(e) +
           " mips=1000 memory=256M asil=D network=Net\n";
  }
  // 4 apps of the given utilization each.
  const int wcet_k = util_percent * 100;  // period 10ms, mips 1000
  for (int a = 0; a < 4; ++a) {
    dsl += "app A" + std::to_string(a) + " class=nondeterministic asil=QM\n";
    dsl += "  task t period=10ms wcet=" + std::to_string(wcet_k) + "K" +
           " priority=5\n";
  }
  auto sys = model::parse_system(dsl);
  Explorer explorer(sys.model);
  const auto result = explorer.greedy();
  ASSERT_TRUE(result.feasible);
  std::set<std::string> used;
  for (const auto& [app, hosts] : result.assignment.placement) {
    used.insert(hosts.begin(), hosts.end());
  }
  const int expected_min =
      static_cast<int>(std::ceil(4.0 * util_percent / 100.0));
  EXPECT_LE(static_cast<int>(used.size()), std::max(expected_min, 1) + 0);
}

INSTANTIATE_TEST_SUITE_P(UtilSweep, GreedyPacking,
                         ::testing::Values(10, 25, 50, 90));

}  // namespace
}  // namespace dynaplat::dse
