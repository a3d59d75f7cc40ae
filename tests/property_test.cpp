// Property-based tests: randomized sweeps asserting structural invariants
// of the schedulers, TT synthesis, transport reassembly, CAN arbitration,
// the explorer/verifier contract and platform lifecycle chaos.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "dse/exploration.hpp"
#include "dse/schedulability.hpp"
#include "middleware/transport.hpp"
#include "model/parser.hpp"
#include "net/can_bus.hpp"
#include "os/processor.hpp"
#include "platform/vehicle.hpp"
#include "sim/random.hpp"

namespace dynaplat {
namespace {

// --- TT synthesis invariants over random task sets ------------------------------

class TtSynthesisProperty : public ::testing::TestWithParam<int> {};

TEST_P(TtSynthesisProperty, TablesAreWellFormed) {
  sim::Random rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    // Random harmonic-ish task set, utilization <= 0.8.
    std::vector<dse::AnalysisTask> tasks;
    const int n = 2 + static_cast<int>(rng.next_below(6));
    double budget = 0.8;
    for (int i = 0; i < n; ++i) {
      dse::AnalysisTask task;
      task.name = "t" + std::to_string(i);
      task.period = (1LL << rng.next_below(3)) * 10 * sim::kMillisecond;
      task.deadline = task.period;
      const double share =
          std::min(budget, rng.uniform(0.02, 0.3));
      budget -= share;
      task.wcet = std::max<sim::Duration>(
          1000,
          static_cast<sim::Duration>(share *
                                     static_cast<double>(task.period)));
      task.priority = i;
      task.deterministic = true;
      tasks.push_back(task);
    }
    const auto table = dse::synthesize_tt_table(tasks);
    if (!table) continue;  // fragmentation can legitimately fail

    // Invariant 1: windows sorted and non-overlapping.
    for (std::size_t i = 1; i < table->windows.size(); ++i) {
      EXPECT_GE(table->windows[i].offset,
                table->windows[i - 1].offset + table->windows[i - 1].length);
    }
    // Invariant 2: every job of every task has exactly one window in its
    // period instance, within [release, deadline].
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const auto& task = tasks[t];
      const auto jobs = table->cycle / task.period;
      std::set<sim::Time> releases_covered;
      for (const auto& window : table->windows) {
        if (window.task != t) continue;
        const sim::Time release =
            (window.offset / task.period) * task.period;
        EXPECT_GE(window.offset, release);
        EXPECT_LE(window.offset + window.length, release + task.deadline);
        EXPECT_TRUE(releases_covered.insert(release).second)
            << "double window for one job";
      }
      EXPECT_EQ(releases_covered.size(),
                static_cast<std::size_t>(jobs));
    }
    // Invariant 3: reserved fraction equals task utilization.
    double utilization = 0.0;
    for (const auto& task : tasks) utilization += task.utilization();
    EXPECT_NEAR(table->reserved_fraction(), utilization, 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TtSynthesisProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- RTA is a sound bound: simulation never exceeds it --------------------------

class RtaSoundness : public ::testing::TestWithParam<int> {};

TEST_P(RtaSoundness, SimulatedResponseNeverExceedsAnalyticBound) {
  sim::Random rng(static_cast<std::uint64_t>(100 + GetParam()));
  // Rate-monotonic random set, utilization <= 0.7.
  std::vector<dse::AnalysisTask> tasks;
  const int n = 3 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < n; ++i) {
    dse::AnalysisTask task;
    task.name = "t" + std::to_string(i);
    task.period = (2 + rng.next_below(20)) * sim::kMillisecond;
    task.deadline = task.period;
    task.wcet = static_cast<sim::Duration>(
        rng.uniform(0.05, 0.7 / n) * static_cast<double>(task.period));
    task.deterministic = true;
    tasks.push_back(task);
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const auto& a, const auto& b) { return a.period < b.period; });
  for (int i = 0; i < n; ++i) tasks[static_cast<std::size_t>(i)].priority = i;

  const auto bounds = dse::response_time_analysis(tasks);
  if (!bounds) return;  // not schedulable: nothing to check

  sim::Simulator simulator;
  os::Processor cpu(simulator, "ecu", os::CpuModel{.mips = 1000},
                    os::make_fixed_priority());
  std::vector<os::TaskId> ids;
  for (const auto& task : tasks) {
    os::TaskConfig config;
    config.name = task.name;
    config.task_class = os::TaskClass::kDeterministic;
    config.period = task.period;
    config.instructions =
        static_cast<std::uint64_t>(task.wcet);  // 1000 MIPS: 1 instr == 1 ns
    config.priority = task.priority;
    ids.push_back(cpu.add_task(config));
  }
  cpu.start();
  simulator.run_until(sim::seconds(5));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // Allow the context-switch overhead the analysis does not model: every
    // preemption costs two 1 us switches, and a busy period can see a
    // couple of dozen higher-priority releases.
    const double allowance = 1000.0 * 2 * 20 * n + 10.0;
    EXPECT_LE(cpu.stats(ids[i]).response_time.max(),
              static_cast<double>((*bounds)[i]) + allowance)
        << tasks[i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtaSoundness, ::testing::Values(1, 2, 3, 4));

// --- Transport fuzz ---------------------------------------------------------------

class TransportFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TransportFuzz, SurvivesLossAndReorderingExactly) {
  // Media deliver frames intact or not at all (per-frame CRC is the
  // medium's job), so the transport's contract is: under arbitrary frame
  // *loss* and *reordering*, every delivered message is byte-exact with a
  // sent one, and with zero loss every message arrives exactly once.
  sim::Random rng(static_cast<std::uint64_t>(7000 + GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t mtu = 8 + rng.next_below(1500);
    const double loss = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 0.2);
    std::vector<net::Frame> wire;
    sim::Simulator simulator;
    middleware::Transport tx(
        [&](net::Frame frame) { wire.push_back(std::move(frame)); }, mtu,
        simulator);
    middleware::Transport rx([](net::Frame) {}, mtu, simulator);
    std::vector<std::vector<std::uint8_t>> received;
    rx.set_handler(
        [&](net::NodeId, net::Payload message, const obs::TraceContext&) {
          received.push_back(message.to_vector());
        });

    std::vector<std::vector<std::uint8_t>> sent;
    const int messages = 1 + static_cast<int>(rng.next_below(5));
    for (int m = 0; m < messages; ++m) {
      std::vector<std::uint8_t> payload(rng.next_below(4000));
      for (auto& byte : payload) {
        byte = static_cast<std::uint8_t>(rng.next_u64());
      }
      sent.push_back(payload);
      tx.send(5, 0, 1, payload);
    }
    // Global shuffle: fragments of different messages interleave.
    for (std::size_t i = wire.size(); i > 1; --i) {
      std::swap(wire[i - 1], wire[rng.next_below(i)]);
    }
    for (const auto& frame : wire) {
      if (loss > 0.0 && rng.chance(loss)) continue;
      rx.on_frame(frame);
    }

    for (const auto& message : received) {
      EXPECT_NE(std::find(sent.begin(), sent.end(), message), sent.end());
    }
    if (loss == 0.0) {
      EXPECT_EQ(received.size(), sent.size());
    } else {
      EXPECT_LE(received.size(), sent.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportFuzz, ::testing::Values(1, 2, 3));

// --- CAN arbitration global ordering --------------------------------------------------

TEST(CanArbitrationProperty, SimultaneousFramesDeliverInIdOrder) {
  sim::Random rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    sim::Simulator simulator;
    net::CanBus bus(simulator, "can", {});
    std::vector<std::uint32_t> order;
    bus.attach(99, [&](const net::Frame& frame) {
      order.push_back(bus.arbitration_id(frame));
    });
    const int frames = 2 + static_cast<int>(rng.next_below(20));
    for (int i = 0; i < frames; ++i) {
      net::Frame frame;
      frame.flow_id = static_cast<std::uint32_t>(rng.next_below(100));
      frame.src = 1;
      frame.priority = static_cast<net::Priority>(rng.next_below(8));
      frame.payload.assign(1 + rng.next_below(8), 0x11);
      bus.send(std::move(frame));
    }
    simulator.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(frames));
    // The very first frame grabbed the idle bus before the rest were
    // queued; from then on every arbitration round picks the globally
    // lowest id, so positions 1..n-1 must be sorted.
    EXPECT_TRUE(std::is_sorted(order.begin() + 1, order.end()));
  }
}

// --- Explorer/Verifier contract ---------------------------------------------------------

TEST(ExplorerProperty, FeasibleResultsPassTheVerifier) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    sim::Random rng(seed);
    std::string dsl = "network Net kind=ethernet bitrate=1G\n";
    const int ecus = 2 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < ecus; ++e) {
      dsl += "ecu E" + std::to_string(e) +
             " mips=1000 memory=128M asil=D network=Net\n";
    }
    const int apps = 3 + static_cast<int>(rng.next_below(6));
    for (int a = 0; a < apps; ++a) {
      dsl += "app A" + std::to_string(a) +
             " class=deterministic asil=B memory=8M\n";
      dsl += "  task t period=10ms wcet=" +
             std::to_string(500 + rng.next_below(1500)) + "K priority=" +
             std::to_string(a % 8) + "\n";
    }
    auto sys = model::parse_system(dsl);
    dse::Explorer explorer(sys.model);
    model::Verifier verifier;
    verifier.set_schedulability_hook(dse::make_verifier_hook());
    for (const auto& result :
         {explorer.greedy(), explorer.simulated_annealing(500, seed),
          explorer.genetic(12, 10, seed)}) {
      if (!result.feasible) continue;
      const auto violations =
          verifier.verify_assignment(sys.model, result.assignment);
      EXPECT_FALSE(model::Verifier::has_errors(violations))
          << result.strategy << " claimed feasible but verifier disagrees";
    }
  }
}

// --- Platform lifecycle chaos ---------------------------------------------------------------

TEST(PlatformChaos, RandomLifecycleSequenceKeepsInvariants) {
  auto parsed = model::parse_system(
      "network Net kind=ethernet bitrate=100M\n"
      "ecu A mips=1000 memory=64M asil=D network=Net\n"
      "interface I1 paradigm=event payload=8 period=10ms\n"
      "app App1 class=deterministic asil=B memory=4M\n"
      "  task t period=10ms wcet=500K priority=1\n"
      "  provides I1\n"
      "app App2 class=nondeterministic asil=QM memory=8M\n"
      "  task t period=20ms wcet=2M priority=9\n"
      "app App3 class=deterministic asil=B memory=4M\n"
      "  task t period=20ms wcet=1M priority=2\n"
      "deploy App1 -> A\n");
  sim::Simulator simulator;
  platform::Vehicle vehicle(simulator, parsed);
  platform::DynamicPlatform& dp = vehicle.platform();
  platform::PlatformNode& node = *dp.node("A");
  os::Ecu& ecu = vehicle.ecu("A");
  auto factory = [] { return std::make_unique<platform::Application>(); };
  for (const char* app : {"App1", "App2", "App3"}) {
    dp.register_app(app, factory);
  }
  ASSERT_TRUE(dp.install_all());

  sim::Random rng(777);
  const char* names[] = {"App1", "App2", "App3"};
  for (int step = 0; step < 200; ++step) {
    simulator.run_until(simulator.now() + 5 * sim::kMillisecond);
    const char* app = names[rng.next_below(3)];
    switch (rng.next_below(4)) {
      case 0: {
        const model::AppDef* def = parsed.model.app(app);
        std::string reason;
        node.install(*def, factory, &reason);
        break;
      }
      case 1:
        node.start(app);
        break;
      case 2:
        node.stop(app);
        break;
      case 3:
        node.uninstall(app);
        break;
    }
    // Invariant: memory accounting never exceeds physical memory, the
    // deterministic schedule stays consistent (resync never wedges the
    // processor), and App1 (if running) is still schedulable.
    EXPECT_LE(ecu.memory().reserved(), ecu.memory().total());
  }
  simulator.run_until(simulator.now() + sim::seconds(1));
  // Whatever ended up running keeps meeting deadlines (admission control
  // never let an infeasible combination through).
  auto& cpu = ecu.processor();
  for (os::TaskId id : cpu.task_ids()) {
    if (cpu.config(id).task_class == os::TaskClass::kDeterministic &&
        cpu.stats(id).completions > 10) {
      EXPECT_LT(cpu.stats(id).miss_ratio(), 0.02) << cpu.config(id).name;
    }
  }
}

}  // namespace
}  // namespace dynaplat
