// Unit tests for the discrete-event simulation kernel, the scenario sweep
// and the RNG.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"

namespace dynaplat::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), 0);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(30, [&] { order.push_back(3); });
  simulator.schedule_at(10, [&] { order.push_back(1); });
  simulator.schedule_at(20, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 30);
}

TEST(Simulator, SameTimestampFiresInScheduleOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(10, [&] { order.push_back(1); });
  simulator.schedule_at(10, [&] { order.push_back(2); });
  simulator.schedule_at(10, [&] { order.push_back(3); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator simulator;
  Time fired_at = -1;
  simulator.schedule_at(100, [&] {
    simulator.schedule_in(50, [&] { fired_at = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  const EventId id = simulator.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(simulator.cancel(id));
  simulator.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(simulator.cancel(id));  // second cancel is a no-op
}

TEST(Simulator, RecurrenceFiresPeriodically) {
  Simulator simulator;
  int count = 0;
  const EventId id = simulator.schedule_every(5, 10, [&] { ++count; });
  simulator.run_until(45);
  EXPECT_EQ(count, 5);  // t = 5, 15, 25, 35, 45
  simulator.cancel(id);
  simulator.run_until(100);
  EXPECT_EQ(count, 5);
}

TEST(Simulator, RecurrenceCanCancelItself) {
  Simulator simulator;
  int count = 0;
  EventId id;
  id = simulator.schedule_every(1, 1, [&] {
    if (++count == 3) simulator.cancel(id);
  });
  simulator.run_until(100);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesClockToBound) {
  Simulator simulator;
  simulator.schedule_at(10, [] {});
  simulator.run_until(500);
  EXPECT_EQ(simulator.now(), 500);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator simulator;
  bool late_fired = false;
  simulator.schedule_at(1000, [&] { late_fired = true; });
  simulator.run_until(500);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(simulator.pending(), 1u);
  simulator.run();
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, StopHaltsRun) {
  Simulator simulator;
  int count = 0;
  simulator.schedule_every(1, 1, [&] {
    if (++count == 10) simulator.stop();
  });
  simulator.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, EventsExecutedCountsFiredOnly) {
  Simulator simulator;
  simulator.schedule_at(1, [] {});
  const EventId cancelled = simulator.schedule_at(2, [] {});
  simulator.cancel(cancelled);
  simulator.run();
  EXPECT_EQ(simulator.events_executed(), 1u);
}

// --- Event-order determinism regression ------------------------------------
//
// Golden FNV-1a fingerprint over the (time, firing-index) total order of a
// mixed scenario: two periodics, one-shots, cancel-inside-own-callback (both
// the one-shot and the recurrence flavour), cancellation of a pending event
// from another callback, same-timestamp FIFO ties, and the run_until clock
// edge cases (re-run at the same bound, bound with no events, event exactly
// at the bound, stop() inside run_until). The constant below was captured
// from the pre-slab tombstone kernel; any kernel change that alters the
// firing order, the cancel return values, pending() accounting or the
// run_until clock semantics changes the hash and fails this test.
namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t run_fingerprint_scenario() {
  Fnv1a fp;
  Simulator s;
  auto mark = [&](std::uint64_t tag) {
    fp.mix(tag);
    fp.mix(static_cast<std::uint64_t>(s.now()));
    fp.mix(s.events_executed());
    fp.mix(s.pending());
  };
  auto mark_cancel = [&](bool cancelled) { fp.mix(cancelled ? 0xC1 : 0xC0); };

  // Periodic A fires at 5, 12, 19; cancelled externally at t=21.
  const EventId a = s.schedule_every(5, 7, [&] { mark(1); });
  // Periodic B fires at 3, 8, 13, 18 and cancels itself mid-fire on the 4th.
  int b_count = 0;
  EventId b;
  b = s.schedule_every(3, 5, [&] {
    mark(2);
    if (++b_count == 4) mark_cancel(s.cancel(b));
  });
  // One-shot C at t=20 is cancelled before firing by the t=10 event.
  const EventId c = s.schedule_at(20, [&] { mark(3); });
  // One-shot at t=10 schedules a same-timestamp one-shot (FIFO tie) and
  // cancels C.
  s.schedule_at(10, [&] {
    mark(4);
    s.schedule_at(10, [&] { mark(5); });
    mark_cancel(s.cancel(c));
  });
  // One-shot D cancels itself while executing (no-op: already dequeued).
  EventId d;
  d = s.schedule_at(12, [&] {
    mark(6);
    mark_cancel(s.cancel(d));
  });
  // Periodic E fires at 4, 10; cancelled from another callback at t=15.
  const EventId e = s.schedule_every(4, 6, [&] { mark(7); });
  s.schedule_at(15, [&] {
    mark(8);
    mark_cancel(s.cancel(e));
  });
  s.schedule_at(21, [&] {
    mark(12);
    mark_cancel(s.cancel(a));
  });

  s.run_until(10);
  mark(100);
  s.run_until(10);  // re-run at the same bound: no-op, clock stays
  mark(101);
  s.run_until(11);  // bound with no events: clock still advances
  mark(102);
  s.schedule_at(22, [&] { mark(9); });
  s.run_until(22);  // event exactly at the bound fires
  mark(103);
  s.schedule_at(24, [&] {
    mark(10);
    s.stop();
  });
  s.schedule_at(26, [&] { mark(11); });
  s.run_until(40);  // stop() fires at 24; clock advances to the bound anyway
  mark(104);
  s.run();  // drains the leftover t=26 event
  mark(105);
  return fp.h;
}

}  // namespace

TEST(Simulator, GoldenEventOrderFingerprint) {
  // Captured from the pre-change kernel (priority_queue + tombstones); the
  // slab/indexed-heap kernel must preserve it bit for bit.
  constexpr std::uint64_t kGolden = 0xc2dcf1ddca96c36bull;
  EXPECT_EQ(run_fingerprint_scenario(), kGolden);
}

TEST(Simulator, FingerprintScenarioIsReproducible) {
  EXPECT_EQ(run_fingerprint_scenario(), run_fingerprint_scenario());
}

// --- Slab / generation-handle behaviour ------------------------------------

TEST(Simulator, StaleHandleAfterSlotReuseIsSafe) {
  Simulator simulator;
  int fired = 0;
  const EventId first = simulator.schedule_at(10, [&] { ++fired; });
  ASSERT_TRUE(simulator.cancel(first));
  // The freed slot is reused by the next event; the stale handle must not
  // cancel the new occupant.
  const EventId second = simulator.schedule_at(20, [&] { ++fired; });
  EXPECT_FALSE(simulator.cancel(first));
  EXPECT_FALSE(simulator.cancel(first));  // idempotent
  simulator.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(simulator.cancel(second));  // already fired
}

TEST(Simulator, HandleOfFiredEventGoesStale) {
  Simulator simulator;
  const EventId id = simulator.schedule_at(5, [] {});
  simulator.run();
  EXPECT_FALSE(simulator.cancel(id));
}

TEST(Simulator, CancelHeavyWorkloadDoesNotGrowQueueOrSlab) {
  // The acked-retry-timer pattern: schedule a timeout, cancel it almost
  // immediately, repeat. The tombstone kernel grew its priority_queue
  // linearly here; the indexed heap must stay flat.
  Simulator simulator;
  for (int round = 0; round < 100000; ++round) {
    const EventId timer =
        simulator.schedule_in(1000000, [] { FAIL() << "timer leaked"; });
    ASSERT_TRUE(simulator.cancel(timer));
    EXPECT_EQ(simulator.pending(), 0u);
  }
  // One chunk of slab capacity serves the whole workload via the free list.
  EXPECT_LE(simulator.slab_capacity(), 256u);
}

TEST(Simulator, LargeCaptureCallbackFallsBackToHeapCorrectly) {
  Simulator simulator;
  std::array<std::uint64_t, 16> payload{};  // 128 bytes: exceeds inline SBO
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i + 1;
  std::uint64_t sum = 0;
  static_assert(!InlineFunction::fits_inline<decltype([payload, &sum] {})>());
  simulator.schedule_at(1, [payload, &sum] {
    for (std::uint64_t v : payload) sum += v;
  });
  simulator.run();
  EXPECT_EQ(sum, 136u);
}

TEST(Simulator, RecurrenceRearmsWithoutCopyingCallback) {
  // A move-only capture proves the kernel never copies the callable: the
  // old kernel copied it on every firing and would not compile this.
  Simulator simulator;
  int count = 0;
  auto token = std::make_unique<int>(42);  // move-only capture
  EventId tick;
  tick = simulator.schedule_every(
      10, 10, [held = std::move(token), &count, &simulator, &tick] {
        if (++count == 3) simulator.cancel(tick);
      });
  simulator.run();
  EXPECT_EQ(count, 3);
}

// --- Same-instant coalescing ------------------------------------------------

using FireLog = std::vector<std::pair<Time, int>>;

TEST(Simulator, SameInstantEventsShareOneQueueEntry) {
  Simulator simulator;
  FireLog log;
  constexpr Time kAt = 5 * kMillisecond;
  for (int i = 0; i < 100; ++i) {
    simulator.schedule_at(
        kAt, [&log, &simulator, i] { log.push_back({simulator.now(), i}); });
  }
  simulator.schedule_at(
      kAt + 1, [&log, &simulator] { log.push_back({simulator.now(), 100}); });
  EXPECT_EQ(simulator.pending(), 101u);
  EXPECT_EQ(simulator.queued_instants(), 2u);
  simulator.run();
  ASSERT_EQ(log.size(), 101u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(log[i], std::make_pair(kAt, i));
  EXPECT_EQ(log[100], std::make_pair(kAt + 1, 100));
  EXPECT_EQ(simulator.queued_instants(), 0u);
}

TEST(Simulator, CancelInsideSharedInstantKeepsOrder) {
  Simulator simulator;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(
        simulator.schedule_at(10, [&order, i] { order.push_back(i); }));
  }
  // The ring's head, a member in the middle, and its tail.
  EXPECT_TRUE(simulator.cancel(ids[0]));
  EXPECT_TRUE(simulator.cancel(ids[3]));
  EXPECT_TRUE(simulator.cancel(ids[5]));
  EXPECT_FALSE(simulator.cancel(ids[3]));  // double cancel no-ops
  EXPECT_EQ(simulator.pending(), 3u);
  EXPECT_EQ(simulator.queued_instants(), 1u);
  // A later event for the same instant still queues behind the survivors.
  simulator.schedule_at(10, [&order] { order.push_back(6); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 6}));
  EXPECT_FALSE(simulator.cancel(ids[1]));  // already fired
  // Cancelling every event of an instant drops its queue entry.
  const EventId a = simulator.schedule_at(20, [] {});
  const EventId b = simulator.schedule_at(20, [] {});
  EXPECT_EQ(simulator.queued_instants(), 1u);
  EXPECT_TRUE(simulator.cancel(b));
  EXPECT_TRUE(simulator.cancel(a));
  EXPECT_EQ(simulator.queued_instants(), 0u);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Simulator, RecurrenceCancelsItselfBehindSharedInstant) {
  // The recurrence re-arms onto instants that already hold a one-shot, so
  // it waits behind that one-shot — and cancels itself from there.
  Simulator simulator;
  FireLog log;
  for (Time t = 10; t <= 60; t += 10) {
    simulator.schedule_at(
        t, [&log, &simulator] { log.push_back({simulator.now(), 0}); });
  }
  int fires = 0;
  EventId tick;
  tick = simulator.schedule_every(10, 10, [&] {
    log.push_back({simulator.now(), 1});
    if (++fires == 3) {
      EXPECT_TRUE(simulator.cancel(tick));
    }
  });
  simulator.run();
  EXPECT_EQ(fires, 3);
  const FireLog expected = {{10, 0}, {10, 1}, {20, 0}, {20, 1}, {30, 0},
                            {30, 1}, {40, 0}, {50, 0}, {60, 0}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Simulator, InterleavedInstantsFireInScheduleOrder) {
  // Far more live instants than the recent-instant table holds, revisited
  // in a different order each round: a revisit either joins the instant's
  // latest ring or opens a new one, and neither may reorder the instant.
  Simulator simulator;
  FireLog log;
  constexpr int kInstants = 1000;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    for (int t = 0; t < kInstants; ++t) {
      const Time at = 1 + (t * 7919 + round * 104729) % kInstants;
      simulator.schedule_at(at, [&log, &simulator, round] {
        log.push_back({simulator.now(), round});
      });
    }
  }
  EXPECT_GT(simulator.queued_instants(), static_cast<std::size_t>(kInstants));
  simulator.run();
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kInstants * kRounds));
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].first, static_cast<Time>(i / kRounds + 1));
    EXPECT_EQ(log[i].second, static_cast<int>(i % kRounds));
  }
}

namespace {

// The kernel's contract with no coalescing: one (at, seq) entry per event
// in an ordered map, recurrences re-keyed with a fresh seq before invoking.
class ReferenceQueue {
 public:
  using Id = std::uint64_t;

  Time now() const { return now_; }
  std::size_t pending() const { return events_.size(); }

  Id schedule_at(Time at, std::function<void()> fn) {
    return add(at, 0, std::move(fn));
  }
  Id schedule_every(Time first, Duration period, std::function<void()> fn) {
    return add(first, period, std::move(fn));
  }
  bool cancel(Id id) {
    const auto it = events_.find(id);
    if (it == events_.end()) return false;
    order_.erase({it->second.at, it->second.seq});
    events_.erase(it);
    return true;
  }
  void run_until(Time until) {
    while (!order_.empty() && order_.begin()->first.first <= until) {
      const Id id = order_.begin()->second;
      order_.erase(order_.begin());
      Event& event = events_.at(id);
      now_ = event.at;
      const std::shared_ptr<std::function<void()>> fn = event.fn;
      if (event.period > 0) {
        event.at += event.period;
        event.seq = next_seq_++;
        order_.emplace(std::make_pair(event.at, event.seq), id);
      } else {
        events_.erase(id);
      }
      (*fn)();
    }
    if (now_ < until) now_ = until;
  }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    Duration period;
    std::shared_ptr<std::function<void()>> fn;
  };

  Id add(Time at, Duration period, std::function<void()> fn) {
    const Id id = next_id_++;
    events_.emplace(id, Event{at, next_seq_, period,
                              std::make_shared<std::function<void()>>(
                                  std::move(fn))});
    order_.emplace(std::make_pair(at, next_seq_++), id);
    return id;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  Id next_id_ = 1;
  std::map<std::pair<Time, std::uint64_t>, Id> order_;
  std::unordered_map<Id, Event> events_;
};

// Randomized, tie-heavy workload: instants on a 1 ms grid (several events
// per instant), chained arms from inside callbacks including zero-delay
// ones that join the firing instant, immediate and deferred cancels of
// ring heads and members, and recurrences sharing instants that cancel
// themselves mid-flight. Cancel results and pending() are logged too.
template <typename Queue>
FireLog run_tie_heavy_workload(Queue& q) {
  using Id = decltype(q.schedule_at(Time{0}, [] {}));
  FireLog log;
  auto rng = Random::stream(0xA11CE, 7);
  auto cancellable = std::make_shared<std::vector<Id>>();
  for (int i = 0; i < 400; ++i) {
    const int tag = i;
    const Time at = rng.uniform_int(0, 200) * kMillisecond;
    if (i % 7 == 3) {
      q.schedule_at(at, [&log, &q, tag] {
        log.push_back({q.now(), tag});
        auto follow = Random::stream(0xF0110, static_cast<std::uint64_t>(tag));
        q.schedule_at(q.now() + follow.uniform_int(0, 20) * kMillisecond,
                      [&log, &q, tag] {
                        log.push_back({q.now(), 10'000 + tag});
                      });
      });
    } else {
      cancellable->push_back(q.schedule_at(
          at, [&log, &q, tag] { log.push_back({q.now(), tag}); }));
    }
  }
  for (std::size_t i = 0; i < cancellable->size(); i += 5) {
    log.push_back({-1, q.cancel((*cancellable)[i]) ? 1 : 0});
  }
  q.schedule_at(50 * kMillisecond, [&log, &q, cancellable] {
    for (std::size_t i = 2; i < cancellable->size(); i += 5) {
      log.push_back({q.now(), q.cancel((*cancellable)[i]) ? -1 : -2});
    }
  });
  constexpr int kPeriodics = 8;
  auto counts = std::make_shared<std::array<int, kPeriodics>>();
  counts->fill(0);
  auto ids = std::make_shared<std::array<Id, kPeriodics>>();
  for (int p = 0; p < kPeriodics; ++p) {
    const Time first = rng.uniform_int(0, 20) * kMillisecond;
    const Duration period = rng.uniform_int(3, 12) * kMillisecond;
    (*ids)[p] = q.schedule_every(first, period, [&log, &q, counts, ids, p] {
      log.push_back({q.now(), 20'000 + p});
      if (++(*counts)[p] == 4 + p % 3) q.cancel((*ids)[p]);
    });
  }
  log.push_back({-2, static_cast<int>(q.pending())});
  q.run_until(100 * kMillisecond);
  log.push_back({-3, static_cast<int>(q.pending())});
  q.run_until(2 * kSecond);
  log.push_back({-4, static_cast<int>(q.pending())});
  return log;
}

}  // namespace

TEST(Simulator, RandomWorkloadMatchesReferenceOrder) {
  ReferenceQueue reference;
  const FireLog expected = run_tie_heavy_workload(reference);
  Simulator simulator;
  const FireLog actual = run_tie_heavy_workload(simulator);
  ASSERT_GT(expected.size(), 500u);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "divergence at entry " << i;
  }
}

// --- ScenarioSweep ----------------------------------------------------------

namespace {

// A small event-driven scenario whose fingerprint depends on the RNG stream
// and the kernel's firing order; used to A/B serial vs parallel sweeps.
std::uint64_t sweep_scenario_fingerprint(ScenarioRun& run) {
  Fnv1a fp;
  fp.mix(run.index);
  for (int burst = 0; burst < 20; ++burst) {
    const Time at = run.simulator.now() + 1 +
                    static_cast<Time>(run.rng.next_below(1000));
    const EventId timer = run.simulator.schedule_at(
        at + 500, [&fp] { fp.mix(0xDEAD); });
    run.simulator.schedule_at(at, [&fp, &run, timer] {
      fp.mix(static_cast<std::uint64_t>(run.simulator.now()));
      if (run.rng.chance(0.5)) {
        fp.mix(run.simulator.cancel(timer) ? 1 : 0);
      }
    });
    run.simulator.run_until(at + 1000);
  }
  fp.mix(run.simulator.events_executed());
  return fp.h;
}

}  // namespace

TEST(ScenarioSweep, BitIdenticalAcrossThreadCounts) {
  std::vector<std::uint64_t> serial;
  {
    ScenarioSweep sweep({.seed = 99, .threads = 0});
    serial = sweep.run<std::uint64_t>(32, sweep_scenario_fingerprint);
  }
  ASSERT_EQ(serial.size(), 32u);
  for (const std::size_t threads : {1u, 4u}) {
    ScenarioSweep sweep({.seed = 99, .threads = threads});
    EXPECT_EQ(sweep.threads(), threads);
    const std::vector<std::uint64_t> parallel =
        sweep.run<std::uint64_t>(32, sweep_scenario_fingerprint);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
    EXPECT_EQ(ScenarioSweep::merge_fingerprints(serial),
              ScenarioSweep::merge_fingerprints(parallel));
  }
}

TEST(ScenarioSweep, StreamsAreIndependentOfSweepWidth) {
  // Scenario i's outcome must not depend on how many scenarios run beside
  // it (RNG streams are derived per index, not drawn from a shared source).
  ScenarioSweep narrow({.seed = 7, .threads = 2});
  ScenarioSweep wide({.seed = 7, .threads = 2});
  const auto few = narrow.run<std::uint64_t>(4, sweep_scenario_fingerprint);
  const auto many = wide.run<std::uint64_t>(16, sweep_scenario_fingerprint);
  for (std::size_t i = 0; i < few.size(); ++i) EXPECT_EQ(few[i], many[i]);
}

TEST(ScenarioSweep, RunsEveryIndexExactlyOnce) {
  // Empty, singleton and large batches, inline and on workers.
  for (const std::size_t threads : {0u, 4u}) {
    for (const std::size_t n : {0u, 1u, 1000u}) {
      ScenarioSweep sweep({.seed = 5, .threads = threads});
      std::vector<std::atomic<int>> runs(n);
      sweep.for_each_index(n, [&](std::size_t i) { runs[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

namespace {

constexpr std::uint64_t kBlobSeed = 5;

// Index- and stream-derived payload with embedded NULs and newlines: a
// result is a whole value in its index-addressed slot, whatever its bytes.
std::string blob_for(std::size_t index, Random rng) {
  std::string blob = "job:" + std::to_string(index) + "\n";
  blob.push_back('\0');
  blob += std::string(index % 7, 'x');
  blob += std::to_string(rng.next_u64());
  return blob;
}

std::string expected_blob(std::size_t index) {
  return blob_for(index, Random::stream(kBlobSeed, index));
}

std::vector<std::string> run_blobs(std::size_t threads, std::size_t n) {
  ScenarioSweep sweep({.seed = kBlobSeed, .threads = threads});
  return sweep.run<std::string>(
      n, [](ScenarioRun& run) { return blob_for(run.index, run.rng); });
}

}  // namespace

TEST(ScenarioSweep, InlineRunReturnsResultsInIndexOrder) {
  const std::vector<std::string> blobs = run_blobs(0, 9);
  ASSERT_EQ(blobs.size(), 9u);
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    EXPECT_EQ(blobs[i], expected_blob(i)) << "index " << i;
  }
}

TEST(ScenarioSweep, MergeMatchesSerialAtAnyThreadCount) {
  const std::size_t n = 17;
  const std::vector<std::string> serial = run_blobs(0, n);
  for (const std::size_t threads : {1u, 2u, 3u, 5u}) {
    EXPECT_EQ(run_blobs(threads, n), serial) << "threads=" << threads;
  }
}

TEST(ScenarioSweep, HandlesEmptyAndSingletonScenarioSets) {
  EXPECT_TRUE(run_blobs(2, 0).empty());
  const std::vector<std::string> one = run_blobs(3, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], expected_blob(0));
}

TEST(ScenarioSweep, MoreWorkersThanScenariosStillMergesCleanly) {
  const std::vector<std::string> blobs = run_blobs(6, 3);
  ASSERT_EQ(blobs.size(), 3u);
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    EXPECT_EQ(blobs[i], expected_blob(i)) << "index " << i;
  }
}

// The fuzzer's per-round pattern: each scenario fills its own coverage map
// and the caller merges them in index order. The merged map must be a pure
// function of the scenario set, the same at every thread count.
TEST(ScenarioSweep, CoverageMergeIsThreadCountInvariant) {
  const auto coverage_job = [](ScenarioRun& run) {
    obs::CoverageMap map;
    map.hit("sweep.job", run.index + 1);
    map.hit("sweep.bucket." + std::to_string(run.index % 3));
    if (run.index % 2 == 0) map.hit("sweep.even");
    return map;
  };
  const std::size_t n = 12;
  std::string serial_json;
  std::uint64_t serial_fp = 0;
  std::size_t serial_keys = 0;
  for (const std::size_t threads : {0u, 2u, 4u}) {
    ScenarioSweep sweep({.seed = 5, .threads = threads});
    const obs::CoverageMap merged = ScenarioSweep::merge_coverage(
        sweep.run<obs::CoverageMap>(n, coverage_job));
    if (threads == 0) {
      serial_json = merged.snapshot_json();
      serial_fp = merged.fingerprint();
      serial_keys = merged.unique_hit_count();
      EXPECT_EQ(serial_keys, 5u);
      EXPECT_EQ(merged.count("sweep.job"), n * (n + 1) / 2);
    } else {
      EXPECT_EQ(merged.snapshot_json(), serial_json) << "threads=" << threads;
      EXPECT_EQ(merged.fingerprint(), serial_fp) << "threads=" << threads;
      EXPECT_EQ(merged.unique_hit_count(), serial_keys);
    }
  }
}

TEST(ScenarioSweep, ZeroThreadsRunsInlineInIndexOrder) {
  ScenarioSweep sweep({.seed = 5, .threads = 0});
  EXPECT_EQ(sweep.threads(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  sweep.for_each_index(50, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(50);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ScenarioSweep, RethrowsLowestFailingIndexAndRunsAgain) {
  for (const std::size_t threads : {0u, 3u}) {
    ScenarioSweep sweep({.seed = 5, .threads = threads});
    try {
      sweep.for_each_index(100, [](std::size_t i) {
        if (i == 42 || i == 77) throw std::out_of_range(std::to_string(i));
      });
      ADD_FAILURE() << "no exception, threads=" << threads;
    } catch (const std::out_of_range& e) {
      EXPECT_STREQ(e.what(), "42") << "threads=" << threads;
    }
    // The same sweep, workers and all, runs the next batch in full.
    std::vector<std::atomic<int>> runs(100);
    sweep.for_each_index(100, [&](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ScenarioSweep, MergeFingerprintsIsOrderSensitive) {
  const std::vector<std::uint64_t> a{1, 2, 3};
  const std::vector<std::uint64_t> b{3, 2, 1};
  EXPECT_NE(ScenarioSweep::merge_fingerprints(a),
            ScenarioSweep::merge_fingerprints(b));
  EXPECT_EQ(ScenarioSweep::merge_fingerprints(a),
            ScenarioSweep::merge_fingerprints(a));
}

TEST(Random, DeterministicForSameSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Random, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Random, UniformIntStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Random, Uniform01StaysInUnitInterval) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Random, ExponentialMeanApproximatelyCorrect) {
  Random rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Random, NormalMomentsApproximatelyCorrect) {
  Random rng(13);
  const int n = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt((sum_sq - n * mean * mean) / (n - 1)), 2.0, 0.1);
}

TEST(Random, ForkProducesIndependentStream) {
  Random a(42);
  Random b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(SlotPool, ReusesFreedSlotsAndReleasesTakenValues) {
  SlotPool<std::shared_ptr<int>> pool;
  auto token = std::make_shared<int>(7);
  const std::uint32_t a = pool.put(token);
  const std::uint32_t b = pool.put(std::make_shared<int>(8));
  EXPECT_NE(a, b);
  EXPECT_EQ(*pool[a], 7);
  EXPECT_EQ(pool.size(), 2u);
  const std::shared_ptr<int> taken = pool.take(a);
  EXPECT_EQ(taken, token);
  EXPECT_EQ(token.use_count(), 2);  // `token` and `taken`: none in the pool
  EXPECT_EQ(pool.size(), 1u);
  // A freed slot is reused before the pool grows.
  EXPECT_EQ(pool.put(std::make_shared<int>(9)), a);
  EXPECT_EQ(pool.capacity(), 2u);
  for (int i = 0; i < 1000; ++i) pool.take(pool.put(nullptr));
  EXPECT_EQ(pool.capacity(), 3u);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(Trace, RecordsAndCounts) {
  Trace trace;
  trace.record(10, TraceCategory::kTask, "ecu0/brake", "deadline_miss", 3);
  trace.record(20, TraceCategory::kTask, "ecu0/brake", "complete");
  trace.record(30, TraceCategory::kFault, "ecu0", "ecu_failed");
  EXPECT_EQ(trace.count(TraceCategory::kTask, "deadline_miss"), 1u);
  EXPECT_EQ(trace.count(TraceCategory::kTask, "complete"), 1u);
  std::vector<TraceRecord> faults;
  for (const TraceRecord& r : trace.tail(trace.buffer().size())) {
    if (r.category == TraceCategory::kFault) faults.push_back(r);
  }
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].source, "ecu0");
}

TEST(Trace, DisabledTraceRecordsNothing) {
  Trace trace;
  trace.set_enabled(false);
  trace.record(10, TraceCategory::kTask, "x", "y");
  EXPECT_TRUE(trace.tail(1).empty());
}

}  // namespace
}  // namespace dynaplat::sim
