// Trace v2: the vehicle-wide flight-recorder substrate (paper Sec. 3.4).
//
// Replaces the unbounded two-strings-per-record sim::Trace storage with a
// compact event format designed for always-on use:
//  * source/event names are interned once; hot paths record 28-byte events
//    holding 32-bit string IDs instead of heap-allocated std::strings,
//  * a configurable ring-buffer capacity bounds memory for arbitrarily long
//    runs (oldest events are evicted, eviction is counted),
//  * a per-category enable mask makes the disabled path a single load+branch
//    so instrumentation can stay in release builds,
//  * span records (begin/end pairs) express durations — task execution
//    slices, frame transmissions, update phases — which the Chrome
//    trace-event exporter (obs/export.hpp) renders as timeline lanes.
//
// The buffer itself is simulator-thread-only, like every other sim object;
// cross-thread metrics live in obs::MetricsRegistry instead.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace dynaplat::obs {

enum class Category : std::uint8_t {
  kTask,      // task activation / completion / deadline events
  kNetwork,   // frame transmission / reception
  kService,   // middleware events (offer, subscribe, call)
  kPlatform,  // lifecycle: install, start, stop, update phases
  kFault,     // injected or detected faults
  kSecurity,  // auth, verification outcomes
  kBackend,   // fleet backend: queue, shedding, breaker, outages
};
inline constexpr std::size_t kCategoryCount = 7;
inline constexpr std::uint32_t kAllCategories = (1u << kCategoryCount) - 1;

constexpr std::uint32_t category_bit(Category c) {
  return 1u << static_cast<unsigned>(c);
}
const char* category_name(Category c);

enum class EventType : std::uint8_t {
  kInstant,    // point event
  kBegin,      // span opens on the source's lane
  kEnd,        // span closes (matches the innermost open kBegin of same name)
  kCounter,    // sampled numeric series (value is the sample)
  kFlowStart,  // causal flow opens (value is the flow/trace id)
  kFlowStep,   // causal flow passes through this lane
  kFlowEnd,    // causal flow terminates
};
const char* event_type_name(EventType t);

struct Event {
  sim::Time at = 0;
  std::uint32_t source = 0;  // interned lane name, e.g. "ecu0/brake_ctl"
  std::uint32_t name = 0;    // interned event name, e.g. "deadline_miss"
  std::int64_t value = 0;
  Category category = Category::kTask;
  EventType type = EventType::kInstant;
};

/// Append-only string table: one id per distinct string, ids stay valid for
/// the interner's lifetime. Guarded by a mutex so analysis threads may
/// intern lane names up front; lookups of existing ids are lock-free reads
/// of stable deque slots.
class Interner {
 public:
  std::uint32_t intern(std::string_view s);
  const std::string& lookup(std::uint32_t id) const;
  /// Id of an already-interned string, or 0 (the reserved empty id) if the
  /// string was never interned.
  std::uint32_t find(std::string_view s) const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::deque<std::string> names_{std::string{}};  // slot 0: empty string
};

struct TraceBufferConfig {
  /// Maximum retained events; 0 = unbounded (the pre-v2 behaviour).
  std::size_t capacity = 0;
};

class TraceBuffer {
 public:
  TraceBuffer() = default;
  explicit TraceBuffer(TraceBufferConfig config)
      : capacity_(config.capacity) {}

  /// The disabled fast path: one load + branch, no argument evaluation when
  /// call sites check this before building names or values.
  bool enabled() const { return mask_ != 0; }
  bool enabled(Category c) const { return (mask_ & category_bit(c)) != 0; }
  void set_enabled(bool on);
  void set_category_enabled(Category c, bool on);
  std::uint32_t category_mask() const { return mask_; }

  /// Rebounds the ring; shrinking evicts oldest events (counted as dropped).
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

  std::uint32_t intern(std::string_view s) { return interner_.intern(s); }
  const std::string& name_of(std::uint32_t id) const {
    return interner_.lookup(id);
  }
  const Interner& interner() const { return interner_; }

  void record(const Event& event) {
    if (!enabled(event.category)) return;
    push(event);
  }
  void record(sim::Time at, Category category, std::uint32_t source,
              std::uint32_t name, std::int64_t value = 0,
              EventType type = EventType::kInstant) {
    if (!enabled(category)) return;
    push(Event{at, source, name, value, category, type});
  }
  /// Interning convenience for cold paths. Hot paths pre-intern and use the
  /// id overload; call sites should check enabled() before building strings.
  void record(sim::Time at, Category category, std::string_view source,
              std::string_view name, std::int64_t value = 0,
              EventType type = EventType::kInstant);

  void begin_span(sim::Time at, Category category, std::uint32_t source,
                  std::uint32_t name, std::int64_t value = 0) {
    record(at, category, source, name, value, EventType::kBegin);
  }
  void end_span(sim::Time at, Category category, std::uint32_t source,
                std::uint32_t name, std::int64_t value = 0) {
    record(at, category, source, name, value, EventType::kEnd);
  }

  /// Events currently retained (<= capacity when bounded).
  std::size_t size() const { return ring_.size(); }
  /// Events evicted by the ring bound since construction/clear.
  std::uint64_t dropped() const { return dropped_; }
  /// Events accepted (mask passed) since construction/clear.
  std::uint64_t recorded() const { return recorded_; }
  void clear();

  /// Retained events, oldest first.
  std::vector<Event> snapshot() const;
  /// Visits retained events oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) {
      fn(ring_[(head_ + i) % (n == 0 ? 1 : n)]);
    }
  }

  /// Retained events matching category + event name.
  std::size_t count(Category category, std::string_view name) const;

 private:
  void push(const Event& event);

  Interner interner_;
  std::vector<Event> ring_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // index of the oldest event once the ring wrapped
  std::uint32_t mask_ = kAllCategories;
  // Last non-zero mask (never 0), restored by set_enabled(true).
  std::uint32_t saved_mask_ = kAllCategories;
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
};

}  // namespace dynaplat::obs
