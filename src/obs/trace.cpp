#include "obs/trace.hpp"

#include <algorithm>

namespace dynaplat::obs {

const char* category_name(Category c) {
  switch (c) {
    case Category::kTask:
      return "task";
    case Category::kNetwork:
      return "network";
    case Category::kService:
      return "service";
    case Category::kPlatform:
      return "platform";
    case Category::kFault:
      return "fault";
    case Category::kSecurity:
      return "security";
    case Category::kBackend:
      return "backend";
  }
  return "unknown";
}

const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::kInstant:
      return "instant";
    case EventType::kBegin:
      return "begin";
    case EventType::kEnd:
      return "end";
    case EventType::kCounter:
      return "counter";
    case EventType::kFlowStart:
      return "flow_start";
    case EventType::kFlowStep:
      return "flow_step";
    case EventType::kFlowEnd:
      return "flow_end";
  }
  return "unknown";
}

std::uint32_t Interner::intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ids_.find(std::string(s));
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(s);
  ids_.emplace(names_.back(), id);
  return id;
}

const std::string& Interner::lookup(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= names_.size()) return names_.front();  // empty string
  return names_[id];
}

std::uint32_t Interner::find(std::string_view s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ids_.find(std::string(s));
  return it == ids_.end() ? 0 : it->second;
}

std::size_t Interner::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return names_.size();
}

void TraceBuffer::set_enabled(bool on) {
  if (on) {
    mask_ = saved_mask_;
  } else {
    if (mask_ != 0) saved_mask_ = mask_;
    mask_ = 0;
  }
}

void TraceBuffer::set_category_enabled(Category c, bool on) {
  if (on) {
    mask_ |= category_bit(c);
  } else {
    mask_ &= ~category_bit(c);
  }
  if (mask_ != 0) saved_mask_ = mask_;
}

void TraceBuffer::set_capacity(std::size_t capacity) {
  if (capacity == capacity_) return;
  std::vector<Event> kept = snapshot();
  if (capacity != 0 && kept.size() > capacity) {
    dropped_ += kept.size() - capacity;
    kept.erase(kept.begin(),
               kept.begin() + static_cast<long>(kept.size() - capacity));
  }
  ring_ = std::move(kept);
  head_ = 0;
  capacity_ = capacity;
}

void TraceBuffer::record(sim::Time at, Category category,
                         std::string_view source, std::string_view name,
                         std::int64_t value, EventType type) {
  if (!enabled(category)) return;
  push(Event{at, interner_.intern(source), interner_.intern(name), value,
             category, type});
}

void TraceBuffer::clear() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
  recorded_ = 0;
}

std::vector<Event> TraceBuffer::snapshot() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  for_each([&out](const Event& e) { out.push_back(e); });
  return out;
}

std::size_t TraceBuffer::count(Category category,
                               std::string_view name) const {
  const std::uint32_t id = interner_.find(name);
  if (id == 0) return 0;
  std::size_t n = 0;
  for_each([&](const Event& e) {
    if (e.category == category && e.name == id) ++n;
  });
  return n;
}

void TraceBuffer::push(const Event& event) {
  ++recorded_;
  if (capacity_ == 0 || ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

}  // namespace dynaplat::obs
