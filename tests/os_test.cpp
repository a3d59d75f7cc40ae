// Unit tests for the OS substrate: schedulers, processor mechanics, memory
// protection and ECU fault injection.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/can_bus.hpp"
#include "os/ecu.hpp"
#include "os/memory.hpp"
#include "os/processor.hpp"
#include "os/scheduler.hpp"
#include "sim/simulator.hpp"

namespace dynaplat::os {
namespace {

TaskConfig periodic(const std::string& name, sim::Duration period,
                    std::uint64_t instructions, int priority,
                    TaskClass cls = TaskClass::kDeterministic) {
  TaskConfig c;
  c.name = name;
  c.task_class = cls;
  c.period = period;
  c.instructions = instructions;
  c.priority = priority;
  return c;
}

// --- CpuModel ----------------------------------------------------------------

TEST(CpuModel, DurationScalesInverselyWithMips) {
  CpuModel slow{.mips = 100};
  CpuModel fast{.mips = 1000};
  EXPECT_EQ(slow.duration_for(1'000'000), 10 * sim::kMillisecond);
  EXPECT_EQ(fast.duration_for(1'000'000), sim::kMillisecond);
}

TEST(CpuModel, CryptoAcceleratorSpeedsUpCryptoOnly) {
  CpuModel hsm{.mips = 100, .crypto_accelerator = true, .crypto_speedup = 20};
  EXPECT_EQ(hsm.duration_for_crypto(2'000'000),
            hsm.duration_for(2'000'000 / 20));
  EXPECT_EQ(hsm.duration_for(2'000'000), 20 * sim::kMillisecond);
}

// --- Processor with fixed-priority scheduling ---------------------------------

TEST(Processor, PeriodicTaskRunsEveryPeriod) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  int runs = 0;
  const TaskId id = cpu.add_task(
      periodic("ctl", 10 * sim::kMillisecond, 100'000, 1), [&] { ++runs; });
  cpu.start();
  simulator.run_until(100 * sim::kMillisecond);
  // Releases at 0,10,...,90 and also t=100 fires before run_until returns.
  EXPECT_GE(runs, 10);
  EXPECT_LE(runs, 11);
  EXPECT_EQ(cpu.stats(id).deadline_misses, 0u);
}

TEST(Processor, HigherPriorityPreemptsLower) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  // Low-priority hog: 8 ms of work every 20 ms. High-priority task: 1 ms of
  // work every 5 ms with a 2 ms deadline -- only feasible with preemption.
  auto hog = periodic("hog", 20 * sim::kMillisecond, 800'000, 10,
                      TaskClass::kNonDeterministic);
  auto urgent = periodic("urgent", 5 * sim::kMillisecond, 100'000, 1);
  urgent.deadline = 2 * sim::kMillisecond;
  cpu.add_task(hog);
  const TaskId u = cpu.add_task(urgent);
  cpu.start();
  simulator.run_until(sim::seconds(1));
  EXPECT_EQ(cpu.stats(u).deadline_misses, 0u);
  EXPECT_GT(cpu.stats(u).completions, 150u);
}

TEST(Processor, OverloadedTaskMissesDeadlines) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  // 15 ms of work every 10 ms: structurally infeasible.
  const TaskId id =
      cpu.add_task(periodic("over", 10 * sim::kMillisecond, 1'500'000, 1));
  cpu.start();
  simulator.run_until(200 * sim::kMillisecond);
  EXPECT_GT(cpu.stats(id).deadline_misses, 0u);
}

TEST(Processor, ResponseTimeReflectsExecutionTime) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  // 1 ms of work, alone on the CPU: response time == 1 ms (+ nothing else).
  const TaskId id =
      cpu.add_task(periodic("solo", 10 * sim::kMillisecond, 100'000, 1));
  cpu.start();
  simulator.run_until(100 * sim::kMillisecond);
  EXPECT_NEAR(cpu.stats(id).response_time.mean(),
              static_cast<double>(sim::kMillisecond), 1000.0);
}

TEST(Processor, RemoveTaskStopsReleases) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  int runs = 0;
  const TaskId id = cpu.add_task(
      periodic("t", 10 * sim::kMillisecond, 1000, 1), [&] { ++runs; });
  cpu.start();
  simulator.run_until(35 * sim::kMillisecond);
  const int runs_before = runs;
  cpu.remove_task(id);
  simulator.run_until(200 * sim::kMillisecond);
  EXPECT_EQ(runs, runs_before);
  EXPECT_FALSE(cpu.has_task(id));
}

TEST(Processor, AperiodicReleaseRunsOnce) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  int runs = 0;
  TaskConfig c;
  c.name = "aperiodic";
  c.instructions = 1000;
  c.priority = 3;
  const TaskId id = cpu.add_task(c, [&] { ++runs; });
  cpu.start();
  simulator.schedule_at(5 * sim::kMillisecond, [&] { cpu.release(id); });
  simulator.run_until(50 * sim::kMillisecond);
  EXPECT_EQ(runs, 1);
}

TEST(Processor, SubmitRunsOneShotWork) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  cpu.start();
  bool done = false;
  cpu.submit("verify_sig", 500'000, 5, TaskClass::kNonDeterministic,
             [&] { done = true; });
  simulator.run_until(sim::kMillisecond);  // 5 ms of work not yet finished
  EXPECT_FALSE(done);
  simulator.run_until(10 * sim::kMillisecond);
  EXPECT_TRUE(done);
}

TEST(Processor, SubmittedJobIsScheduledByPriorityAndPreempted) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  std::vector<std::string> completions;
  sim::Time job_done_at = 0;
  // Urgent: 2 ms every 10 ms. Background: 1 ms released at 5 ms.
  cpu.add_task(periodic("urgent", 10 * sim::kMillisecond, 200'000, 1),
               [&] { completions.push_back("urgent"); });
  auto background = periodic("background", 50 * sim::kMillisecond, 100'000,
                             9, TaskClass::kNonDeterministic);
  background.offset = 5 * sim::kMillisecond;
  cpu.add_task(background, [&] { completions.push_back("background"); });
  cpu.start();
  int runs = 0;
  // Released at 5 ms right after the background job: priority 5 takes the
  // core from it, then loses it to urgent at 10 ms and resumes at ~12 ms.
  simulator.schedule_at(5 * sim::kMillisecond, [&] {
    cpu.submit("job", 1'000'000, 5, TaskClass::kNonDeterministic, [&] {
      ++runs;
      job_done_at = simulator.now();
      completions.push_back("job");
    });
  });
  simulator.run_until(30 * sim::kMillisecond);
  EXPECT_EQ(runs, 1);
  // 10 ms of work from 5 ms plus 2 ms of urgent preemption (and a few
  // 10 us context switches).
  EXPECT_GT(job_done_at, 17 * sim::kMillisecond);
  EXPECT_LT(job_done_at, 18 * sim::kMillisecond);
  const std::vector<std::string> expected = {"urgent", "urgent", "job",
                                             "background", "urgent"};
  EXPECT_EQ(completions, expected);
  // One-shot work counts towards the core's retired instructions.
  EXPECT_EQ(cpu.instructions_retired(), 3 * 200'000u + 100'000u + 1'000'000u);
}

TEST(Processor, SubmittedJobsAreNotTasksButDrawTaskIds) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  const TaskId first =
      cpu.add_task(periodic("t", 10 * sim::kMillisecond, 1000, 1));
  cpu.start();
  for (int i = 0; i < 3; ++i) {
    cpu.submit("job", 100'000, 5, TaskClass::kNonDeterministic, [] {});
  }
  // Pending one-shots are not listed, yet each drew an id: task ids (and
  // with them trace lanes) come out as if each submit were a task.
  EXPECT_EQ(cpu.task_ids(), std::vector<TaskId>{first});
  for (TaskId id = first + 1; id <= first + 3; ++id) {
    EXPECT_FALSE(cpu.has_task(id));
  }
  const TaskId second =
      cpu.add_task(periodic("u", 10 * sim::kMillisecond, 1000, 2));
  EXPECT_EQ(second, first + 4);
  simulator.run_until(20 * sim::kMillisecond);
  EXPECT_EQ(cpu.task_ids(), (std::vector<TaskId>{first, second}));
  EXPECT_EQ(cpu.add_task(periodic("v", 10 * sim::kMillisecond, 1000, 3)),
            first + 5);
}

TEST(Processor, SubmitOnHaltedCoreDropsTheBody) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  cpu.start();
  cpu.halt();
  auto token = std::make_shared<int>(0);
  bool ran = false;
  cpu.submit("job", 1000, 5, TaskClass::kNonDeterministic,
             [&ran, token] { ran = true; });
  EXPECT_EQ(token.use_count(), 1);  // the body and its captures are gone
  simulator.run_until(10 * sim::kMillisecond);
  EXPECT_FALSE(ran);
  EXPECT_EQ(cpu.instructions_retired(), 0u);
}

TEST(Processor, SubmittedBodyMaySubmitAgainAndRemoveTasks) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  int periodic_runs = 0;
  const TaskId victim = cpu.add_task(
      periodic("victim", sim::kMillisecond, 1000, 1), [&] { ++periodic_runs; });
  cpu.start();
  // Five chained 2 ms jobs: each body submits the next, the last removes
  // the periodic task that kept preempting them.
  std::vector<int> chain;
  std::function<void(int)> step = [&](int n) {
    chain.push_back(n);
    if (n < 5) {
      cpu.submit("chain", 200'000, 5, TaskClass::kNonDeterministic,
                 [&step, n] { step(n + 1); });
    } else {
      cpu.remove_task(victim);
    }
  };
  cpu.submit("chain", 200'000, 5, TaskClass::kNonDeterministic,
             [&step] { step(1); });
  simulator.run_until(15 * sim::kMillisecond);
  EXPECT_EQ(chain, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_FALSE(cpu.has_task(victim));
  const int runs_after_removal = periodic_runs;
  EXPECT_GE(runs_after_removal, 10);
  simulator.run_until(30 * sim::kMillisecond);
  EXPECT_EQ(periodic_runs, runs_after_removal);
}

TEST(Processor, UtilizationSumsPeriodicLoad) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  cpu.add_task(periodic("a", 10 * sim::kMillisecond, 100'000, 1));  // 0.1
  cpu.add_task(periodic("b", 20 * sim::kMillisecond, 400'000, 2));  // 0.2
  EXPECT_NEAR(cpu.utilization(), 0.3, 1e-9);
}

TEST(Processor, HaltStopsEverything) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  int runs = 0;
  cpu.add_task(periodic("t", sim::kMillisecond, 100, 1), [&] { ++runs; });
  cpu.start();
  simulator.run_until(10 * sim::kMillisecond);
  cpu.halt();
  const int before = runs;
  simulator.run_until(100 * sim::kMillisecond);
  EXPECT_EQ(runs, before);
}

// --- EDF ----------------------------------------------------------------------

TEST(EdfScheduler, SchedulesFullUtilizationWithoutMisses) {
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100}, make_edf());
  // Total utilization 0.99; EDF must not miss, FP (rate-monotonic bound
  // 0.78 for 3 tasks) likely would for adversarial priorities.
  const TaskId a =
      cpu.add_task(periodic("a", 10 * sim::kMillisecond, 330'000, 9));
  const TaskId b =
      cpu.add_task(periodic("b", 15 * sim::kMillisecond, 495'000, 9));
  const TaskId c =
      cpu.add_task(periodic("c", 30 * sim::kMillisecond, 990'000, 9));
  cpu.start();
  simulator.run_until(sim::seconds(3));
  EXPECT_EQ(cpu.stats(a).deadline_misses, 0u);
  EXPECT_EQ(cpu.stats(b).deadline_misses, 0u);
  EXPECT_EQ(cpu.stats(c).deadline_misses, 0u);
}

// --- Time-triggered -----------------------------------------------------------

TEST(TimeTriggered, TaskRunsOnlyInItsWindow) {
  sim::Simulator simulator;
  // 10 ms cycle; task 1 owns [2ms, 4ms).
  auto tt = std::make_unique<TimeTriggeredScheduler>(
      10 * sim::kMillisecond,
      std::vector<TtWindow>{{2 * sim::kMillisecond, 2 * sim::kMillisecond, 1}});
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100}, std::move(tt));
  sim::Time completed_at = 0;
  const TaskId id = cpu.add_task(
      periodic("da", 10 * sim::kMillisecond, 100'000, 0),
      [&] { completed_at = simulator.now(); });
  ASSERT_EQ(id, 1u);  // table above references TaskId 1
  cpu.start();
  simulator.run_until(9 * sim::kMillisecond);
  // Released at t=0 but window opens at 2 ms; 1 ms work -> completes 3 ms.
  EXPECT_EQ(completed_at, 3 * sim::kMillisecond);
}

TEST(TimeTriggered, BackgroundRunsOutsideWindowsAndIsPreempted) {
  sim::Simulator simulator;
  auto tt = std::make_unique<TimeTriggeredScheduler>(
      10 * sim::kMillisecond,
      std::vector<TtWindow>{{0, 2 * sim::kMillisecond, 1}});
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100}, std::move(tt));
  const TaskId da = cpu.add_task(
      periodic("da", 10 * sim::kMillisecond, 150'000, 0));
  ASSERT_EQ(da, 1u);
  // Background NDA with 9 ms of work per 20 ms: must interleave with DA
  // windows and still make progress.
  const TaskId nda = cpu.add_task(periodic(
      "nda", 20 * sim::kMillisecond, 900'000, 8, TaskClass::kNonDeterministic));
  cpu.start();
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(cpu.stats(da).deadline_misses, 0u);
  EXPECT_GT(cpu.stats(nda).completions, 50u);
  // DA's response time is pinned by its window: always completes ~1.5 ms
  // after release regardless of the hog. The only variation allowed is one
  // context switch (10 us at 100 MIPS) when the window preempts the NDA.
  EXPECT_NEAR(cpu.stats(da).response_time.max(),
              cpu.stats(da).response_time.min(), 15'000.0);
}

TEST(TimeTriggered, InstallTableSwitchesSchedule) {
  sim::Simulator simulator;
  auto tt_owner = std::make_unique<TimeTriggeredScheduler>(
      10 * sim::kMillisecond,
      std::vector<TtWindow>{{0, sim::kMillisecond, 1}});
  auto* tt = tt_owner.get();
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                std::move(tt_owner));
  const TaskId id =
      cpu.add_task(periodic("da", 10 * sim::kMillisecond, 50'000, 0));
  ASSERT_EQ(id, 1u);
  cpu.start();
  simulator.run_until(sim::seconds(1));
  const auto completions_before = cpu.stats(id).completions;
  EXPECT_GT(completions_before, 90u);
  // Move the window to later in the cycle; task keeps meeting deadlines.
  simulator.schedule_at(
      simulator.now() + 1, [&] {
        tt->install_table(10 * sim::kMillisecond,
                          {{5 * sim::kMillisecond, sim::kMillisecond, 1}});
      });
  simulator.run_until(sim::seconds(2));
  EXPECT_GT(cpu.stats(id).completions, completions_before + 90);
  EXPECT_EQ(cpu.stats(id).deadline_misses, 0u);
}

// --- Fair (GPOS) baseline ------------------------------------------------------

TEST(FairScheduler, LoadInflatesDeterministicResponseTime) {
  sim::Simulator simulator;
  // Run the same DA task alone vs. against load under the fair scheduler.
  auto run_scenario = [&](bool with_load) {
    sim::Simulator local_sim;
    Processor cpu(local_sim, "ecu0", CpuModel{.mips = 100},
                  make_fair(sim::kMillisecond));
    auto da = periodic("da", 20 * sim::kMillisecond, 200'000, 0);
    const TaskId id = cpu.add_task(da);
    if (with_load) {
      for (int i = 0; i < 4; ++i) {
        cpu.add_task(periodic("load" + std::to_string(i),
                              20 * sim::kMillisecond, 800'000, 8,
                              TaskClass::kNonDeterministic));
      }
    }
    cpu.start();
    local_sim.run_until(sim::seconds(2));
    return cpu.stats(id).response_time.mean();
  };
  EXPECT_GT(run_scenario(true), 2.0 * run_scenario(false));
}

// --- Memory protection ----------------------------------------------------------

TEST(MemoryManager, QuotaEnforcement) {
  MemoryManager mm(1024, true);
  const ProcessId p = mm.create_process("app", 512);
  ASSERT_NE(p, kInvalidProcess);
  EXPECT_TRUE(mm.allocate(p, 400));
  EXPECT_FALSE(mm.allocate(p, 200));  // would exceed quota
  mm.deallocate(p, 100);
  EXPECT_TRUE(mm.allocate(p, 200));
}

TEST(MemoryManager, PhysicalMemoryLimitsProcessCreation) {
  MemoryManager mm(1024, true);
  EXPECT_NE(mm.create_process("a", 600), kInvalidProcess);
  EXPECT_EQ(mm.create_process("b", 600), kInvalidProcess);
  EXPECT_NE(mm.create_process("c", 400), kInvalidProcess);
}

TEST(MemoryManager, MmuFaultsForeignAccess) {
  MemoryManager mm(1024, true);
  const ProcessId a = mm.create_process("a", 100);
  const ProcessId b = mm.create_process("b", 100);
  EXPECT_EQ(mm.access(a, a), AccessResult::kGranted);
  EXPECT_EQ(mm.access(a, b), AccessResult::kFaulted);
  EXPECT_EQ(mm.faults(), 1u);
}

TEST(MemoryManager, WithoutMmuForeignAccessCorruptsSilently) {
  MemoryManager mm(1024, false);
  const ProcessId a = mm.create_process("a", 100);
  const ProcessId b = mm.create_process("b", 100);
  EXPECT_EQ(mm.access(a, b), AccessResult::kSilentCorruption);
  EXPECT_EQ(mm.corruptions(), 1u);
}

TEST(MemoryManager, KernelAccessesEverything) {
  MemoryManager mm(1024, true);
  const ProcessId a = mm.create_process("a", 100);
  EXPECT_EQ(mm.access(kKernelProcess, a), AccessResult::kGranted);
}

TEST(MemoryManager, DestroyReleasesQuota) {
  MemoryManager mm(1024, true);
  const ProcessId a = mm.create_process("a", 1000);
  mm.destroy_process(a);
  EXPECT_EQ(mm.reserved(), 0u);
  EXPECT_NE(mm.create_process("b", 1000), kInvalidProcess);
}

// --- Ecu -------------------------------------------------------------------------

TEST(Ecu, SendStampsSourceNode) {
  sim::Simulator simulator;
  net::CanBus bus(simulator, "can0", {});
  Ecu ecu(simulator, EcuConfig{.name = "ecu0"}, &bus, 3);
  net::NodeId seen_src = 0;
  bus.attach(9, [&](const net::Frame& f) { seen_src = f.src; });
  net::Frame f;
  f.payload.assign(4, 1);
  ecu.send(std::move(f));
  simulator.run();
  EXPECT_EQ(seen_src, 3u);
}

TEST(Ecu, FailedEcuNeitherSendsNorReceives) {
  sim::Simulator simulator;
  net::CanBus bus(simulator, "can0", {});
  Ecu a(simulator, EcuConfig{.name = "a"}, &bus, 1);
  Ecu b(simulator, EcuConfig{.name = "b"}, &bus, 2);
  int b_received = 0;
  b.set_receive_handler([&](const net::Frame&) { ++b_received; });
  b.fail();
  net::Frame f;
  f.payload.assign(2, 0);
  a.send(std::move(f));
  simulator.run();
  EXPECT_EQ(b_received, 0);
  // And a failed sender emits nothing.
  a.fail();
  net::Frame g;
  g.payload.assign(2, 0);
  a.send(std::move(g));
  simulator.run();
  EXPECT_EQ(bus.frames_delivered(), 1u);  // only the first frame
}

TEST(Ecu, RecoverRestoresOperation) {
  sim::Simulator simulator;
  net::CanBus bus(simulator, "can0", {});
  Ecu ecu(simulator, EcuConfig{.name = "a"}, &bus, 1);
  int received = 0;
  ecu.set_receive_handler([&](const net::Frame&) { ++received; });
  ecu.fail();
  ecu.recover();
  bus.attach(2, [](const net::Frame&) {});
  net::Frame f;
  f.src = 2;
  f.payload.assign(2, 0);
  bus.send(std::move(f));
  simulator.run();
  EXPECT_EQ(received, 1);
}

TEST(Ecu, GeneralPurposeOsUsesFairScheduler) {
  sim::Simulator simulator;
  Ecu ecu(simulator,
          EcuConfig{.name = "gp", .os = OsKind::kGeneralPurpose}, nullptr, 0);
  EXPECT_STREQ(ecu.processor().scheduler().policy_name(), "fair-rr");
}

// --- Property sweep: FP schedulability under increasing utilization -----------

class FpUtilizationSweep : public ::testing::TestWithParam<int> {};

TEST_P(FpUtilizationSweep, RateMonotonicMeetsDeadlinesBelowBound) {
  // n harmonic tasks at total utilization u <= ln(2) are always schedulable
  // under rate-monotonic priorities; verify by simulation.
  const double u_percent = GetParam();
  sim::Simulator simulator;
  Processor cpu(simulator, "ecu0", CpuModel{.mips = 100},
                make_fixed_priority());
  const int n = 4;
  std::vector<TaskId> ids;
  for (int i = 0; i < n; ++i) {
    const sim::Duration period = (5 << i) * sim::kMillisecond;
    const double share = (u_percent / 100.0) / n;
    const auto instructions = static_cast<std::uint64_t>(
        share * static_cast<double>(period) / 1e9 * 100e6);
    ids.push_back(cpu.add_task(
        periodic("t" + std::to_string(i), period, instructions, i)));
  }
  cpu.start();
  simulator.run_until(sim::seconds(2));
  for (TaskId id : ids) {
    EXPECT_EQ(cpu.stats(id).deadline_misses, 0u)
        << "task " << id << " at u=" << u_percent << "%";
  }
}

INSTANTIATE_TEST_SUITE_P(BelowLiuLaylandBound, FpUtilizationSweep,
                         ::testing::Values(10, 30, 50, 65));

}  // namespace
}  // namespace dynaplat::os
