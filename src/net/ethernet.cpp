#include "net/ethernet.hpp"

#include <algorithm>
#include <cassert>

namespace dynaplat::net {

namespace {

// Standard Ethernet MTU.
constexpr std::size_t kMaxPayloadBytes = 1500;

}  // namespace

GateControlList GateControlList::tt_window(sim::Duration cycle,
                                           sim::Duration tt_len,
                                           Priority tt_max_priority) {
  assert(tt_len > 0 && tt_len < cycle);
  std::uint8_t tt_mask = 0;
  for (Priority p = 0; p <= tt_max_priority; ++p) {
    tt_mask = static_cast<std::uint8_t>(tt_mask | (1u << p));
  }
  GateControlList gcl;
  gcl.cycle = cycle;
  gcl.windows.push_back(GateWindow{0, tt_len, tt_mask});
  gcl.windows.push_back(GateWindow{
      tt_len, cycle - tt_len, static_cast<std::uint8_t>(~tt_mask)});
  return gcl;
}

EthernetSwitch::EthernetSwitch(sim::Simulator& simulator, std::string name,
                               EthernetConfig config)
    : Medium(simulator, std::move(name)), config_(config) {}

std::size_t EthernetSwitch::max_payload() const { return kMaxPayloadBytes; }

sim::Duration EthernetSwitch::frame_duration(std::size_t payload) const {
  // 46-byte minimum payload, 18 bytes header+FCS, 4 bytes 802.1Q tag,
  // 8 bytes preamble/SFD + 12 bytes interframe gap.
  const std::size_t on_wire = std::max<std::size_t>(payload, 46) + 18 + 4;
  const std::size_t with_overhead = on_wire + 8 + 12;
  return static_cast<sim::Duration>(
      static_cast<std::uint64_t>(with_overhead) * 8 * sim::kSecond /
      config_.link_bps);
}

void EthernetSwitch::set_gate_control(NodeId node, GateControlList gcl) {
  egress_[node].gcl = std::move(gcl);
}

void EthernetSwitch::send(Frame frame) {
  if (inject_faults(frame)) return;
  assert(frame.payload.size() <= max_payload());
  frame.enqueued_at = sim_.now();
  frame.seq = seq_++;
  // Serialize on the sender's ingress link; the transmitter is a single
  // resource, frames queue behind each other in FIFO order.
  sim::Time& free_at = ingress_free_at_[frame.src];
  const sim::Time start = std::max(free_at, sim_.now());
  const sim::Time done = start + frame_duration(frame.payload.size()) +
                         kPropagationDelay;
  free_at = done - kPropagationDelay;
  const std::uint32_t slot = park(std::move(frame));
  sim_.schedule_at(done, [this, slot] { on_ingress_complete(slot); });
}

void EthernetSwitch::on_ingress_complete(std::uint32_t slot) {
  // Store-and-forward: the whole frame is now in switch memory.
  sim_.schedule_in(kProcessingDelay, [this, slot] {
    const NodeId dst = parked(slot).dst;
    if (dst != kBroadcast) {
      enqueue_egress(dst, slot);
      return;
    }
    // Flooding: every egress port queues its own copy.
    const NodeId src = parked(slot).src;
    for (auto& [node, port] : egress_) {
      (void)port;
      if (node != src) enqueue_egress(node, park(parked(slot)));
    }
    unpark(slot);
  });
}

void EthernetSwitch::enqueue_egress(NodeId node, std::uint32_t slot) {
  EgressPort& port = egress_[node];
  auto& queue = port.queues[std::min<Priority>(parked(slot).priority, 7)];
  if (queue.size() >= config_.queue_capacity) {
    unpark(slot);
    ++egress_drops_;
    count_drop();
    return;
  }
  queue.push_back(slot);
  try_transmit(node);
}

std::optional<sim::Time> EthernetSwitch::gate_open_time(
    const EgressPort& port, Priority p, sim::Duration tx) const {
  if (!port.gcl.enabled()) return sim_.now();
  const sim::Time now = sim_.now();
  const sim::Duration cycle = port.gcl.cycle;
  const sim::Time cycle_start = (now / cycle) * cycle;
  // Scan this cycle and the next: a sane GCL opens every class each cycle.
  for (int k = 0; k < 2; ++k) {
    const sim::Time base = cycle_start + k * cycle;
    for (const auto& w : port.gcl.windows) {
      if (!((w.open_mask >> p) & 1)) continue;
      const sim::Time open = base + w.offset;
      const sim::Time close = open + w.length;
      const sim::Time start = std::max(now, open);
      // Guard band: the frame must finish before the window closes.
      if (start + tx <= close) return start;
    }
  }
  return std::nullopt;
}

void EthernetSwitch::try_transmit(NodeId node) {
  EgressPort& port = egress_[node];
  if (port.busy) return;
  if (port.pending_kick.valid()) {
    sim_.cancel(port.pending_kick);
    port.pending_kick = {};
  }
  // Strict priority: lowest class index with a queued frame wins. If its
  // gate is shut, lower-priority classes whose gate is open may still send
  // (per 802.1Qbv transmission selection).
  sim::Time best_deferred = sim::kTimeNever;
  for (Priority p = 0; p < 8; ++p) {
    auto& queue = port.queues[p];
    if (queue.empty()) continue;
    const sim::Duration tx =
        frame_duration(parked(queue.front()).payload.size());
    const auto open = gate_open_time(port, p, tx);
    if (!open) {
      // This class never opens under the current GCL; drop to avoid
      // unbounded buildup and surface the misconfiguration in stats.
      ++egress_drops_;
      count_drop();
      unpark(queue.front());
      queue.pop_front();
      --p;  // re-examine the same class
      continue;
    }
    if (*open <= sim_.now()) {
      const std::uint32_t slot = queue.front();
      queue.pop_front();
      port.busy = true;
      if (trace() != nullptr) {
        if (port.trace_lane == 0) {
          port.trace_lane =
              trace_lane(name() + "/egress" + std::to_string(node));
        }
        trace_tx_span(*open, *open + tx, port.trace_lane);
      } else {
        trace_tx_span(*open, *open + tx);
      }
      sim_.schedule_at(*open + tx + kPropagationDelay,
                       [this, node, slot] {
                         egress_[node].busy = false;
                         deliver(unpark(slot));
                         try_transmit(node);
                       });
      return;
    }
    best_deferred = std::min(best_deferred, *open);
  }
  if (best_deferred != sim::kTimeNever) {
    port.pending_kick =
        sim_.schedule_at(best_deferred, [this, node] {
          egress_[node].pending_kick = {};
          try_transmit(node);
        });
  }
}

}  // namespace dynaplat::net
