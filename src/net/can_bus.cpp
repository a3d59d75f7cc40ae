#include "net/can_bus.hpp"

#include <algorithm>
#include <cassert>

namespace dynaplat::net {

namespace {

// Arbitration id = priority * kIdStride + flow_id % kIdStride, so the
// unified Priority maps onto the CAN id space.
constexpr std::uint32_t kIdStride = 0x80;
// CAN FD data-phase bitrate.
constexpr std::uint64_t kDataBitrateBps = 2'000'000;

}  // namespace

CanBus::CanBus(sim::Simulator& simulator, std::string name,
               CanBusConfig config)
    : Medium(simulator, std::move(name)), config_(config) {}

sim::Duration CanBus::frame_duration(std::size_t dlc) const {
  assert(dlc <= max_payload());
  if (!config_.fd) {
    // Standard frame: 1 SOF + 11 id + 1 RTR + 6 control + 8*dlc data +
    // 15 CRC + 1 CRC delim + 2 ACK + 7 EOF = 44 + 8*dlc bits, of which the
    // first 34 + 8*dlc are subject to stuffing (worst case 1 per 4 bits),
    // plus 3 bits interframe space.
    const std::uint64_t data_bits = 8ull * dlc;
    const std::uint64_t stuffable = 34 + data_bits;
    const std::uint64_t stuff = (stuffable - 1) / 4;
    const std::uint64_t total_bits = 44 + data_bits + stuff + 3;
    return static_cast<sim::Duration>(total_bits * sim::kSecond /
                                      config_.bitrate_bps);
  }
  // CAN FD: the arbitration phase (~30 bits: SOF, id, control entry, ACK,
  // EOF, IFS) runs at the arbitration bitrate; the BRS-switched data phase
  // (DLC, 8*dlc data, 21-bit CRC for >16 bytes, stuffing ~20%) runs at the
  // data bitrate.
  const std::uint64_t arbitration_bits = 30;
  const std::uint64_t data_field_bits = 8ull * dlc + 28;
  const std::uint64_t data_bits = data_field_bits + data_field_bits / 5;
  return static_cast<sim::Duration>(
      arbitration_bits * sim::kSecond / config_.bitrate_bps +
      data_bits * sim::kSecond / kDataBitrateBps);
}

std::uint32_t CanBus::arbitration_id(const Frame& frame) const {
  const std::uint32_t base = std::uint32_t(frame.priority) * kIdStride;
  return (base + frame.flow_id % kIdStride) & 0x7FF;
}

void CanBus::enqueue(Frame& frame) {
  assert(frame.payload.size() <= max_payload());
  frame.enqueued_at = sim_.now();
  frame.seq = seq_++;
  Contender contender;
  contender.id = arbitration_id(frame);
  contender.seq = frame.seq;
  contender.slot = park(std::move(frame));
  pending_.push_back(contender);
  std::push_heap(pending_.begin(), pending_.end(), Contender::loses_to);
}

void CanBus::send(Frame frame) {
  if (inject_faults(frame)) return;
  enqueue(frame);
  try_start_transmission();
}

void CanBus::send_batch(std::vector<Frame>& frames) {
  for (Frame& frame : frames) {
    if (inject_faults(frame)) continue;
    enqueue(frame);
  }
  frames.clear();
  try_start_transmission();
}

void CanBus::try_start_transmission() {
  if (busy_ || pending_.empty()) return;
  // Arbitration: lowest id wins the idle bus.
  std::pop_heap(pending_.begin(), pending_.end(), Contender::loses_to);
  in_flight_ = pending_.back().slot;
  pending_.pop_back();
  busy_ = true;
  const sim::Duration on_wire =
      frame_duration(parked(in_flight_).payload.size());
  trace_tx_span(sim_.now(), sim_.now() + on_wire);
  sim_.schedule_in(on_wire, [this] { finish_transmission(); });
}

void CanBus::finish_transmission() {
  busy_ = false;
  deliver(unpark(in_flight_));
  try_start_transmission();
}

}  // namespace dynaplat::net
