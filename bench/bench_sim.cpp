// E16 -- event-kernel throughput: slab/indexed-heap vs the legacy kernel.
//
// The legacy kernel (priority_queue + two unordered_maps + cancellation
// tombstones, exactly as shipped before the rewrite) is reproduced inline
// below as the baseline. Three measurements:
//
//   A. mixed workload -- periodic tickers, one-shot cascades, and the
//      reliable-transport retry pattern (schedule an ack timer, cancel it
//      on the next tick). This is the shape every subsystem puts on the
//      kernel; events/sec is the headline number.
//   B. one-shot churn -- random-time self-rescheduling events, the pure
//      queue-discipline cost with no cancellations.
//   C. cancel growth -- schedule+cancel with no time advance; the legacy
//      queue accumulates one tombstone per cancel, the indexed heap and
//      slab stay flat.
//
// Each timed section repeats kReps times; throughput reports best-of-N and
// the per-rep p50/p95/max spread (bench::percentiles), so BENCH_sim.json is
// noise-resistant. Both kernels run the bit-identical workload; event
// counts are cross-checked to prove the comparison is apples-to-apples.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "bench/common.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

using namespace dynaplat;

namespace {

// --- Legacy kernel (pre-rewrite), verbatim semantics -------------------------

class LegacySimulator {
 public:
  struct Id {
    std::uint64_t value = 0;
    bool valid() const { return value != 0; }
  };

  sim::Time now() const { return now_; }

  Id schedule_at(sim::Time at, std::function<void()> fn) {
    return enqueue(at, std::move(fn));
  }
  Id schedule_in(sim::Duration delay, std::function<void()> fn) {
    return enqueue(now_ + delay, std::move(fn));
  }
  Id schedule_every(sim::Time first, sim::Duration period,
                    std::function<void()> fn) {
    const Id id = enqueue(first, std::move(fn));
    recurrences_.emplace(id.value, period);
    return id;
  }

  bool cancel(Id id) {
    recurrences_.erase(id.value);
    return callbacks_.erase(id.value) > 0;
  }

  bool step() {
    while (!queue_.empty()) {
      const QueueEntry entry = queue_.top();
      if (callbacks_.find(entry.id) == callbacks_.end()) {
        queue_.pop();  // tombstone
        continue;
      }
      queue_.pop();
      now_ = entry.at;
      fire(entry.id);
      return true;
    }
    return false;
  }

  void run_until(sim::Time until) {
    for (;;) {
      while (!queue_.empty() &&
             callbacks_.find(queue_.top().id) == callbacks_.end()) {
        queue_.pop();
      }
      if (queue_.empty() || queue_.top().at > until) break;
      step();
    }
    if (now_ < until) now_ = until;
  }

  std::uint64_t events_executed() const { return events_executed_; }
  std::size_t pending() const { return callbacks_.size(); }
  std::size_t queue_entries() const { return queue_.size(); }

 private:
  struct QueueEntry {
    sim::Time at;
    std::uint64_t seq;
    std::uint64_t id;
    bool operator>(const QueueEntry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  Id enqueue(sim::Time at, std::function<void()> fn) {
    const std::uint64_t id = next_id_++;
    queue_.push(QueueEntry{at, next_seq_++, id});
    callbacks_.emplace(id, std::move(fn));
    return Id{id};
  }

  void fire(std::uint64_t id) {
    auto it = callbacks_.find(id);
    if (it == callbacks_.end()) return;
    ++events_executed_;
    auto rec = recurrences_.find(id);
    if (rec != recurrences_.end()) {
      queue_.push(QueueEntry{now_ + rec->second, next_seq_++, id});
      auto fn = it->second;  // copy: the callback may cancel itself
      fn();
    } else {
      auto fn = std::move(it->second);
      callbacks_.erase(it);
      fn();
    }
  }

  sim::Time now_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      queue_;
  std::unordered_map<std::uint64_t, std::function<void()>> callbacks_;
  std::unordered_map<std::uint64_t, sim::Duration> recurrences_;
};

// --- Workload A: mixed periodic / cascade / retry-cancel ----------------------

struct MixedCounts {
  std::uint64_t events = 0;
  std::uint64_t acked = 0;
  std::uint64_t expired = 0;
};

template <typename Sim>
MixedCounts mixed_workload(sim::Time horizon) {
  using Id = decltype(std::declval<Sim&>().schedule_at(sim::Time{0}, [] {}));
  Sim s;
  constexpr int kTimers = 64;
  constexpr sim::Duration kTick = 100 * sim::kMicrosecond;
  constexpr sim::Duration kRetry = 10 * sim::kMillisecond;
  std::vector<Id> retry(kTimers);
  MixedCounts counts;

  for (int t = 0; t < kTimers; ++t) {
    // ~40-byte capture: a middleware-ish callback (object pointer plus a few
    // ids). Inline for the slab kernel, a heap allocation per scheduled
    // retry timer for std::function.
    s.schedule_every(
        kTick + t * sim::kMicrosecond, kTick,
        [&s, &retry, &counts, t] {
          if (retry[t].valid() && s.cancel(retry[t])) ++counts.acked;
          const std::uint64_t seq0 = counts.acked;
          const std::uint64_t seq1 = seq0 ^ 0x9E3779B97F4A7C15ull;
          retry[t] = s.schedule_in(kRetry, [&counts, seq0, seq1] {
            ++counts.expired;
            (void)seq0;
            (void)seq1;
          });
        });
  }
  // One-shot cascades: a dispatcher fanning out short-lived events, the
  // publish/deliver shape of the network and middleware layers.
  s.schedule_every(50 * sim::kMicrosecond, 50 * sim::kMicrosecond,
                   [&s, &counts] {
                     for (int k = 0; k < 4; ++k) {
                       s.schedule_in(10 * sim::kMicrosecond + k,
                                     [&counts] { (void)counts; });
                     }
                   });
  s.run_until(horizon);
  counts.events = s.events_executed();
  return counts;
}

// --- Workload B: one-shot churn ----------------------------------------------

template <typename Sim>
std::uint64_t churn_workload(std::uint64_t total_events) {
  Sim s;
  sim::Random rng(0xC0FFEE);
  std::uint64_t fired = 0;
  // 4096 always-pending events; each firing reschedules a successor at a
  // random future time until the budget is spent.
  struct Spawner {
    Sim* s;
    sim::Random* rng;
    std::uint64_t* fired;
    std::uint64_t budget;
    void operator()() const {
      ++*fired;
      if (*fired >= budget) return;
      const sim::Duration delay =
          1 + static_cast<sim::Duration>(rng->next_below(1000));
      s->schedule_in(delay, *this);
    }
  };
  for (int i = 0; i < 4096; ++i) {
    const sim::Duration delay =
        1 + static_cast<sim::Duration>(rng.next_below(1000));
    s.schedule_in(delay, Spawner{&s, &rng, &fired, total_events});
  }
  while (fired < total_events && s.step()) {
  }
  return fired;
}

// --- Measurement harness ------------------------------------------------------

struct Throughput {
  std::uint64_t events = 0;
  double best_ms = 0.0;
  double events_per_sec = 0.0;
  bench::Percentiles rep_ms;
};

template <typename Fn>
Throughput measure(int reps, std::uint64_t events, Fn&& fn) {
  Throughput result;
  result.events = events;
  const std::vector<double> samples = bench::repeat_ms(reps, fn);
  result.rep_ms = bench::percentiles(samples);
  result.best_ms = samples[0];
  for (double s : samples) result.best_ms = std::min(result.best_ms, s);
  result.events_per_sec =
      static_cast<double>(events) / (result.best_ms / 1000.0);
  return result;
}

void print_row(bench::Table& table, const char* workload, const char* kernel,
               const Throughput& t) {
  table.row({workload, kernel, bench::fmt(t.events),
             bench::fmt(t.best_ms, 2), bench::fmt(t.events_per_sec / 1e6, 3),
             bench::fmt(t.rep_ms.p50, 2), bench::fmt(t.rep_ms.p95, 2),
             bench::fmt(t.rep_ms.max, 2)});
}

}  // namespace

int main() {
  bench::banner("E16", "event-kernel throughput (slab/indexed-heap vs legacy)");

  constexpr int kReps = 5;
  constexpr sim::Time kMixedHorizon = 2 * sim::kSecond;
  constexpr std::uint64_t kChurnEvents = 1'000'000;

  // Cross-check: both kernels must execute the identical event schedule.
  const MixedCounts legacy_counts = mixed_workload<LegacySimulator>(kMixedHorizon);
  const MixedCounts slab_counts = mixed_workload<sim::Simulator>(kMixedHorizon);
  if (legacy_counts.events != slab_counts.events ||
      legacy_counts.acked != slab_counts.acked ||
      legacy_counts.expired != slab_counts.expired) {
    std::fprintf(stderr,
                 "kernel parity violation: legacy %llu/%llu/%llu vs slab "
                 "%llu/%llu/%llu\n",
                 static_cast<unsigned long long>(legacy_counts.events),
                 static_cast<unsigned long long>(legacy_counts.acked),
                 static_cast<unsigned long long>(legacy_counts.expired),
                 static_cast<unsigned long long>(slab_counts.events),
                 static_cast<unsigned long long>(slab_counts.acked),
                 static_cast<unsigned long long>(slab_counts.expired));
    return 1;
  }

  bench::Table table({"workload", "kernel", "events", "best_ms", "Mev_per_s",
                      "p50_ms", "p95_ms", "max_ms"});

  const Throughput mixed_legacy =
      measure(kReps, legacy_counts.events,
              [] { mixed_workload<LegacySimulator>(kMixedHorizon); });
  print_row(table, "mixed", "legacy", mixed_legacy);
  const Throughput mixed_slab =
      measure(kReps, slab_counts.events,
              [] { mixed_workload<sim::Simulator>(kMixedHorizon); });
  print_row(table, "mixed", "slab", mixed_slab);

  const std::uint64_t churn_check = churn_workload<sim::Simulator>(100000);
  if (churn_check != 100000) {
    std::fprintf(stderr, "churn parity violation: %llu events\n",
                 static_cast<unsigned long long>(churn_check));
    return 1;
  }
  const Throughput churn_legacy =
      measure(kReps, kChurnEvents,
              [] { churn_workload<LegacySimulator>(kChurnEvents); });
  print_row(table, "oneshot-churn", "legacy", churn_legacy);
  const Throughput churn_slab =
      measure(kReps, kChurnEvents,
              [] { churn_workload<sim::Simulator>(kChurnEvents); });
  print_row(table, "oneshot-churn", "slab", churn_slab);

  const double mixed_speedup =
      mixed_slab.events_per_sec / mixed_legacy.events_per_sec;
  const double churn_speedup =
      churn_slab.events_per_sec / churn_legacy.events_per_sec;
  std::printf("\nmixed speedup: %.2fx   oneshot-churn speedup: %.2fx\n",
              mixed_speedup, churn_speedup);

  // --- C: cancel-heavy memory behaviour ---------------------------------------
  constexpr int kCancelRounds = 200000;
  LegacySimulator legacy_cancel;
  for (int i = 0; i < kCancelRounds; ++i) {
    legacy_cancel.cancel(legacy_cancel.schedule_in(sim::kSecond, [] {}));
  }
  sim::Simulator slab_cancel;
  for (int i = 0; i < kCancelRounds; ++i) {
    slab_cancel.cancel(slab_cancel.schedule_in(sim::kSecond, [] {}));
  }
  std::printf(
      "\ncancel growth after %d schedule+cancel rounds (no time advance):\n"
      "  legacy: %zu queue entries (tombstones), %zu pending\n"
      "  slab:   %zu slab nodes,                 %zu pending\n",
      kCancelRounds, legacy_cancel.queue_entries(), legacy_cancel.pending(),
      slab_cancel.slab_capacity(), slab_cancel.pending());

  const bool written = bench::write_result(
      "BENCH_sim.json", "E16_event_kernel", [&](obs::json::Writer& out) {
        const auto throughput = [&out](const char* name, const Throughput& t) {
          out.key(name)
              .begin_object()
              .member("events", t.events)
              .member("best_ms", bench::rounded(t.best_ms, 3))
              .member("events_per_sec", bench::rounded(t.events_per_sec, 0))
              .member("rep_ms_p50", bench::rounded(t.rep_ms.p50, 3))
              .member("rep_ms_p95", bench::rounded(t.rep_ms.p95, 3))
              .member("rep_ms_max", bench::rounded(t.rep_ms.max, 3))
              .end_object();
        };
        out.member("reps", kReps);
        out.key("mixed").begin_object();
        throughput("legacy", mixed_legacy);
        throughput("slab", mixed_slab);
        out.member("speedup", bench::rounded(mixed_speedup, 2)).end_object();
        out.key("oneshot_churn").begin_object();
        throughput("legacy", churn_legacy);
        throughput("slab", churn_slab);
        out.member("speedup", bench::rounded(churn_speedup, 2)).end_object();
        out.key("cancel_growth")
            .begin_object()
            .member("rounds", kCancelRounds)
            .member("legacy_queue_entries", legacy_cancel.queue_entries())
            .member("slab_nodes", slab_cancel.slab_capacity())
            .member("legacy_pending", legacy_cancel.pending())
            .member("slab_pending", slab_cancel.pending())
            .end_object();
      });
  return written ? 0 : 1;
}
