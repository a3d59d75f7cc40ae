// Slot-indexed object pool: storage for objects that wait between events.
//
// A kernel callback (sim::InlineFunction) holds 48 bytes inline; an object
// waiting between two events (a frame between media hops, a submitted CPU
// job) is often bigger. Its owner puts it here and the callback captures
// the 32-bit slot instead. Freed slots are reused LIFO, so the pool grows
// only to the most objects ever held at once and a steady stream allocates
// nothing; the pool starts empty. Storage is one std::vector, so a
// reference from operator[] is invalidated by the next put().
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dynaplat::sim {

template <typename T>
class SlotPool {
 public:
  /// Stores `value` and returns its slot.
  std::uint32_t put(T value) {
    if (free_.empty()) {
      items_.push_back(std::move(value));
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    items_[slot] = std::move(value);
    return slot;
  }

  /// Moves the value out and frees its slot. The slot is reset to T{}, so
  /// nothing the value owned lingers in the pool.
  T take(std::uint32_t slot) {
    free_.push_back(slot);
    return std::exchange(items_[slot], T{});
  }

  T& operator[](std::uint32_t slot) { return items_[slot]; }
  const T& operator[](std::uint32_t slot) const { return items_[slot]; }

  /// Slots ever created: the most values held at once.
  std::size_t capacity() const { return items_.size(); }
  /// Values held now.
  std::size_t size() const { return items_.size() - free_.size(); }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

}  // namespace dynaplat::sim
