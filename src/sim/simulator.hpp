// Discrete-event simulation kernel.
//
// The Simulator owns the single simulated clock and an ordered event queue.
// Every other dynaplat subsystem (network media, ECU schedulers, middleware
// timers, fault injectors) expresses behaviour as events scheduled here, so a
// whole-vehicle scenario executes as one deterministic event-driven program.
//
// Determinism contract: two events at the same timestamp fire in scheduling
// order (FIFO tie-break by a monotonically increasing sequence number). This
// makes a scenario a pure function of (models, seed), which DESIGN.md relies
// on for backend schedule validation.
//
// Internals (DESIGN.md §10): events live as slab-allocated nodes in a
// chunked free-list pool — node addresses are stable, callbacks up to
// InlineFunction::kInlineCapacity bytes are stored inline in the node, and
// steady-state scheduling performs no heap allocation. Ordering is an
// index-tracked 4-ary min-heap over the slab, so cancel() removes the event
// immediately: no tombstones, no lazy-deletion scans in step()/run_until(),
// and a cancel-heavy workload (acked retry timers) cannot grow the queue.
// EventIds carry a per-slot generation counter, so a stale handle — to an
// event that already fired, was cancelled, or whose slot was reused — is
// detected and cancel() safely no-ops. Recurrences re-arm in place with zero
// callback copies.
//
// Same-instant coalescing: events scheduled for the same time are queued as
// a FIFO ring behind ONE heap entry, so a thousand timers sharing a cadence
// tick cost one heap push and one pop between them, and firing or
// cancelling any event but the last of its instant is O(1). A new event
// only joins the ring holding the latest-scheduled events of its instant
// (found through a small direct-mapped table of recent instants); otherwise
// it opens a new ring keyed (at, seq) in the heap. Rings of one instant
// therefore hold disjoint, ordered seq ranges, and the firing order is
// exactly the (time, seq) order of one heap entry per event — coalescing
// changes the cost, never the order.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace dynaplat::sim {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Generation-checked: a handle outliving its event stays safe to cancel().
struct EventId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, InlineFunction fn) {
    return enqueue(at, 0, std::move(fn));
  }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  EventId schedule_in(Duration delay, InlineFunction fn);

  /// Schedules `fn` every `period` starting at `first`. The callback runs
  /// until cancelled. Returns the id of the *recurrence*, which stays valid
  /// across firings.
  EventId schedule_every(Time first, Duration period, InlineFunction fn);

  /// Cancels a pending event or recurrence. Cancelling an already-fired or
  /// unknown id is a no-op. Returns true if something was cancelled.
  bool cancel(EventId id);

  /// Runs events until the queue is empty or `stop()` is called.
  void run();

  /// Runs events with timestamp <= `until`, then advances the clock to
  /// `until` (even if the queue drained earlier).
  void run_until(Time until);

  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  /// Requests `run()` / `run_until()` to return after the current event.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (for tests and cost accounting).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Number of events currently pending.
  std::size_t pending() const { return live_; }

  /// Heap entries currently queued: one per same-instant ring, so
  /// pending() / queued_instants() is the mean coalescing factor.
  std::size_t queued_instants() const { return heap_.size(); }

  /// Total event-node capacity the slab has allocated (for tests/benches:
  /// a cancel-heavy workload must not grow this without bound).
  std::size_t slab_capacity() const { return chunks_.size() * kChunkSize; }

 private:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;
  // heap_pos of a node queued behind the head of its instant's ring.
  static constexpr std::uint32_t kQueuedBehind = 0xFFFFFFFEu;
  static constexpr std::size_t kChunkSize = 256;
  static constexpr unsigned kRecentBits = 8;

  struct Node {
    Time at = 0;
    Duration period = 0;            // 0 => one-shot
    std::uint32_t gen = 1;          // bumped on every slot release
    // Heap index when this node heads its instant's ring, kQueuedBehind
    // when it waits behind a head, kNpos when not queued.
    std::uint32_t heap_pos = kNpos;
    // Circular ring of one instant in firing order (a head's prev is the
    // ring's tail); `next` doubles as the free-list link of a free slot.
    std::uint32_t prev = kNpos;
    std::uint32_t next = kNpos;
    InlineFunction fn;
  };

  // The ring that holds the latest-scheduled events of instant `at`, if it
  // is still queued; only that ring may grow without breaking seq order.
  struct Recent {
    Time at = 0;
    std::uint32_t head = kNpos;
  };

  Node& node(std::uint32_t slot) {
    return chunks_[slot / kChunkSize][slot % kChunkSize];
  }
  const Node& node(std::uint32_t slot) const {
    return chunks_[slot / kChunkSize][slot % kChunkSize];
  }

  // Heap entries carry the (at, seq) ordering key alongside the slot index
  // of the ring's head, so sift comparisons scan the contiguous heap array
  // and never chase into the slab; the slab node is only touched to
  // maintain heap_pos. `seq` is the ring's opening sequence number and
  // stays fixed while heads come and go.
  struct HeapEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  EventId enqueue(Time at, Duration period, InlineFunction fn);
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);

  static std::size_t recent_index(Time at) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(at) * 0x9E3779B97F4A7C15ull) >>
        (64 - kRecentBits));
  }
  /// Queues a node at node(slot).at behind every event already due then.
  void link(std::uint32_t slot);
  /// Takes a queued node out of its instant's ring.
  void unlink(std::uint32_t slot);

  void heap_push(HeapEntry entry);
  void heap_remove(std::uint32_t pos);
  void sift_up(std::uint32_t pos, HeapEntry entry);
  void sift_down(std::uint32_t pos, HeapEntry entry);

  Time now_ = 0;
  bool stopped_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::size_t live_ = 0;

  // Slab: chunked so node addresses stay stable while a resident callback
  // executes (a callback scheduling new events may grow the pool).
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t free_head_ = kNpos;

  // 4-ary min-heap of instant rings ordered by (at, seq); each ring head
  // tracks its heap position for O(log n) arbitrary removal.
  std::vector<HeapEntry> heap_;
  std::array<Recent, std::size_t{1} << kRecentBits> recent_{};

  // Slot whose recurrence callback is executing right now; if it cancels
  // itself mid-fire, reclamation is deferred until the callback returns.
  std::uint32_t firing_ = kNpos;
  bool firing_cancelled_ = false;
};

}  // namespace dynaplat::sim
