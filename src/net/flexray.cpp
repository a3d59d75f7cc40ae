#include "net/flexray.hpp"

#include <cassert>

namespace dynaplat::net {

namespace {

[[maybe_unused]] constexpr std::size_t kMaxStaticPayload = 64;
constexpr std::size_t kMaxDynamicPayload = 254;
// Length of one dynamic-segment minislot.
constexpr sim::Duration kMinislotDuration = 10 * sim::kMicrosecond;

}  // namespace

FlexRayBus::FlexRayBus(sim::Simulator& simulator, std::string name,
                       FlexRayConfig config)
    : Medium(simulator, std::move(name)), config_(config) {}

std::size_t FlexRayBus::max_payload() const { return kMaxDynamicPayload; }

sim::Duration FlexRayBus::cycle_duration() const {
  return static_cast<sim::Duration>(config_.static_slots) *
             config_.static_slot_duration +
         static_cast<sim::Duration>(config_.minislots) * kMinislotDuration;
}

sim::Duration FlexRayBus::frame_duration(std::size_t payload) const {
  const std::size_t frame_bits = (payload + 10) * 8;
  return static_cast<sim::Duration>(frame_bits * sim::kSecond /
                                    config_.bitrate_bps);
}

void FlexRayBus::assign_static_slot(std::size_t slot, std::uint32_t flow_id) {
  assert(slot < config_.static_slots);
  auto prev = slot_owner_.find(slot);
  if (prev != slot_owner_.end()) flow_slot_.erase(prev->second);
  slot_owner_[slot] = flow_id;
  flow_slot_[flow_id] = slot;
}

void FlexRayBus::send(Frame frame) {
  if (inject_faults(frame)) return;
  enqueue(std::move(frame));
  ensure_cycle_scheduled();
}

void FlexRayBus::send_batch(std::vector<Frame>& frames) {
  for (Frame& frame : frames) {
    if (inject_faults(frame)) continue;
    enqueue(std::move(frame));
  }
  frames.clear();
  ensure_cycle_scheduled();
}

void FlexRayBus::enqueue(Frame frame) {
  frame.enqueued_at = sim_.now();
  frame.seq = seq_++;
  if (flow_slot_.count(frame.flow_id)) {
    assert(frame.payload.size() <= kMaxStaticPayload);
    static_pending_[frame.flow_id].push_back(std::move(frame));
  } else {
    assert(frame.payload.size() <= kMaxDynamicPayload);
    dynamic_pending_.emplace(std::make_pair(frame.priority, frame.seq),
                             std::move(frame));
  }
}

void FlexRayBus::ensure_cycle_scheduled() {
  if (!cycle_scheduled_) {
    cycle_scheduled_ = true;
    // Cycles are aligned to the global clock, as in real FlexRay.
    const sim::Duration cycle = cycle_duration();
    const sim::Time next_start = ((sim_.now() + cycle - 1) / cycle) * cycle;
    sim_.schedule_at(next_start, [this] { run_cycle(); });
  }
}

void FlexRayBus::run_cycle() {
  ++cycles_run_;
  const sim::Time cycle_start = sim_.now();

  // Static segment: each slot delivers at its slot's end time, regardless of
  // what any other sender does -- that is the determinism guarantee.
  for (const auto& [slot, flow] : slot_owner_) {
    auto it = static_pending_.find(flow);
    if (it == static_pending_.end() || it->second.empty()) continue;
    const std::uint32_t frame_slot = park(std::move(it->second.front()));
    it->second.pop_front();
    const sim::Time slot_start =
        cycle_start +
        static_cast<sim::Duration>(slot) * config_.static_slot_duration;
    const sim::Time slot_end = slot_start + config_.static_slot_duration;
    trace_tx_span(slot_start, slot_end);
    sim_.schedule_at(slot_end,
                     [this, frame_slot] { deliver(unpark(frame_slot)); });
  }

  // Dynamic segment: minislot counting. Each transmitted frame consumes
  // ceil(duration / minislot) minislots; arbitration is by priority. A frame
  // that no longer fits in the remaining minislots waits for the next cycle.
  const sim::Time dynamic_start =
      cycle_start + static_cast<sim::Duration>(config_.static_slots) *
                        config_.static_slot_duration;
  std::size_t minislot = 0;
  auto it = dynamic_pending_.begin();
  while (it != dynamic_pending_.end() && minislot < config_.minislots) {
    const sim::Duration tx = frame_duration(it->second.payload.size());
    const auto slots_needed = static_cast<std::size_t>(
        (tx + kMinislotDuration - 1) / kMinislotDuration);
    if (minislot + slots_needed > config_.minislots) break;
    const std::uint32_t frame_slot = park(std::move(it->second));
    it = dynamic_pending_.erase(it);
    const sim::Time done =
        dynamic_start + static_cast<sim::Duration>(minislot + slots_needed) *
                            kMinislotDuration;
    trace_tx_span(dynamic_start +
                      static_cast<sim::Duration>(minislot) * kMinislotDuration,
                  done);
    sim_.schedule_at(done,
                     [this, frame_slot] { deliver(unpark(frame_slot)); });
    minislot += slots_needed;
  }

  // Keep cycling while anything is pending.
  bool more = !dynamic_pending_.empty();
  for (const auto& [flow, queue] : static_pending_) {
    more = more || !queue.empty();
  }
  if (more) {
    sim_.schedule_at(cycle_start + cycle_duration(),
                     [this] { run_cycle(); });
  } else {
    cycle_scheduled_ = false;
  }
}

}  // namespace dynaplat::net
