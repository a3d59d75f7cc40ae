#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

namespace dynaplat::sim {

// --- Slab -------------------------------------------------------------------

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ == kNpos) {
    const std::uint32_t base =
        static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    Node* chunk = chunks_.back().get();
    // Thread the fresh nodes onto the free list so low slots pop first.
    for (std::uint32_t i = kChunkSize; i-- > 0;) {
      chunk[i].next = free_head_;
      free_head_ = base + i;
    }
  }
  const std::uint32_t slot = free_head_;
  free_head_ = node(slot).next;
  return slot;
}

void Simulator::free_slot(std::uint32_t slot) {
  Node& n = node(slot);
  n.fn.reset();
  ++n.gen;  // all outstanding handles to this slot go stale
  n.heap_pos = kNpos;
  n.next = free_head_;
  free_head_ = slot;
}

// --- Same-instant rings -----------------------------------------------------

void Simulator::link(std::uint32_t slot) {
  Node& n = node(slot);
  Recent& recent = recent_[recent_index(n.at)];
  if (recent.head != kNpos && recent.at == n.at) {
    // Append at the tail: every event in this ring was scheduled earlier.
    Node& head = node(recent.head);
    const std::uint32_t tail = head.prev;
    node(tail).next = slot;
    n.prev = tail;
    n.next = recent.head;
    head.prev = slot;
    n.heap_pos = kQueuedBehind;
    return;
  }
  n.prev = slot;
  n.next = slot;
  heap_push(HeapEntry{n.at, next_seq_++, slot});
  recent = Recent{n.at, slot};
}

void Simulator::unlink(std::uint32_t slot) {
  Node& n = node(slot);
  if (n.heap_pos == kQueuedBehind) {
    node(n.prev).next = n.next;
    node(n.next).prev = n.prev;
  } else if (n.next != slot) {
    // The head leaves a non-empty ring: its successor takes over the heap
    // entry in place. The entry's key is unchanged, so nothing sifts.
    const std::uint32_t successor = n.next;
    Node& s = node(successor);
    s.prev = n.prev;
    node(n.prev).next = successor;
    s.heap_pos = n.heap_pos;
    heap_[n.heap_pos].slot = successor;
    Recent& recent = recent_[recent_index(n.at)];
    if (recent.head == slot) recent.head = successor;
  } else {
    heap_remove(n.heap_pos);
    Recent& recent = recent_[recent_index(n.at)];
    if (recent.head == slot) recent.head = kNpos;
  }
  n.heap_pos = kNpos;
}

// --- Indexed 4-ary min-heap -------------------------------------------------

void Simulator::sift_up(std::uint32_t pos, HeapEntry entry) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) >> 2;
    if (!heap_less(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    node(heap_[pos].slot).heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = entry;
  node(entry.slot).heap_pos = pos;
}

void Simulator::sift_down(std::uint32_t pos, HeapEntry entry) {
  const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first_child = (pos << 2) + 1;
    if (first_child >= size) break;
    std::uint32_t best = first_child;
    const std::uint32_t last_child =
        first_child + 3 < size ? first_child + 3 : size - 1;
    for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (heap_less(heap_[c], heap_[best])) best = c;
    }
    if (!heap_less(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    node(heap_[pos].slot).heap_pos = pos;
    pos = best;
  }
  heap_[pos] = entry;
  node(entry.slot).heap_pos = pos;
}

void Simulator::heap_push(HeapEntry entry) {
  heap_.push_back(entry);  // placeholder; sift_up writes the final position
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1), entry);
}

void Simulator::heap_remove(std::uint32_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail entry
  if (pos > 0 && heap_less(last, heap_[(pos - 1) >> 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

// --- Scheduling API ---------------------------------------------------------

EventId Simulator::enqueue(Time at, Duration period, InlineFunction fn) {
  assert(at >= now_ && "cannot schedule into the past");
  const std::uint32_t slot = alloc_slot();
  Node& n = node(slot);
  n.at = at;
  n.period = period;
  n.fn = std::move(fn);
  link(slot);
  ++live_;
  return EventId{(static_cast<std::uint64_t>(slot) + 1) << 32 | n.gen};
}

EventId Simulator::schedule_in(Duration delay, InlineFunction fn) {
  assert(delay >= 0);
  return enqueue(now_ + delay, 0, std::move(fn));
}

EventId Simulator::schedule_every(Time first, Duration period,
                                  InlineFunction fn) {
  assert(period > 0);
  return enqueue(first, period, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>((id.value >> 32) - 1);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value);
  if (slot >= slab_capacity()) return false;
  Node& n = node(slot);
  if (n.gen != gen) return false;  // already fired, cancelled, or slot reused
  if (n.heap_pos != kNpos) {
    unlink(slot);
  } else if (slot != firing_) {
    return false;  // not queued and not firing: nothing to cancel
  }
  --live_;
  if (slot == firing_) {
    // A recurrence callback cancelled itself mid-fire: its callable is the
    // one executing right now, so invalidate the handle immediately but
    // defer destroying the callable until step() regains control.
    firing_cancelled_ = true;
    ++n.gen;
  } else {
    free_slot(slot);
  }
  return true;
}

// --- Execution --------------------------------------------------------------

bool Simulator::step() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_[0].slot;
  Node& n = node(slot);
  now_ = n.at;
  ++events_executed_;
  unlink(slot);
  if (n.period > 0) {
    // Re-arm in place before invoking (zero callback copies) so the
    // callback may cancel its own recurrence.
    n.at += n.period;
    link(slot);
    firing_ = slot;
    firing_cancelled_ = false;
    n.fn();
    firing_ = kNpos;
    if (firing_cancelled_) {
      // cancel() already unqueued the node and bumped the generation; now
      // that the callable finished executing, reclaim its storage.
      n.fn.reset();
      n.heap_pos = kNpos;
      n.next = free_head_;
      free_head_ = slot;
    }
  } else {
    --live_;
    // Move the callback out and release the slot before invoking, so the
    // callback may safely schedule/cancel anything (including reusing this
    // very slot).
    InlineFunction fn = std::move(n.fn);
    free_slot(slot);
    fn();
  }
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(Time until) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_[0].at <= until) {
    step();
  }
  if (now_ < until) now_ = until;
}

}  // namespace dynaplat::sim
