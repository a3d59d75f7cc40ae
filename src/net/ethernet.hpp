// Switched Ethernet model with 802.1Q strict-priority queuing and optional
// 802.1Qbv time-aware gating (TSN) on egress ports.
//
// Topology is a single store-and-forward switch in a star; that matches the
// centralized backbone architectures the paper cites (RACE [15]) and is the
// worst-case shared resource for interference experiments (E2/E9). Per-port
// egress has eight strict-priority queues; a TSN GateControlList can reserve
// exclusive time windows for deterministic traffic classes so NDA bulk
// traffic cannot delay DA frames (Sec. 5.3).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "net/medium.hpp"

namespace dynaplat::net {

/// One entry of an 802.1Qbv gate control list. Offsets are relative to the
/// cycle start; `open_mask` bit i opens priority class i (0 = most urgent).
struct GateWindow {
  sim::Duration offset = 0;
  sim::Duration length = 0;
  std::uint8_t open_mask = 0xFF;
};

struct GateControlList {
  sim::Duration cycle = 0;  ///< 0 => gating disabled (plain strict priority)
  std::vector<GateWindow> windows;
  bool enabled() const { return cycle > 0; }

  /// Builds the canonical two-window list: [0, tt_len) exclusively for
  /// priorities <= tt_max_priority, rest of the cycle for everything else.
  static GateControlList tt_window(sim::Duration cycle, sim::Duration tt_len,
                                   Priority tt_max_priority);
};

struct EthernetConfig {
  std::uint64_t link_bps = 100'000'000;        ///< 100BASE-T1
  std::size_t queue_capacity = 256;            ///< frames per egress queue
};

class EthernetSwitch final : public Medium {
 public:
  /// Store-and-forward processing in the switch, and propagation per hop.
  static constexpr sim::Duration kProcessingDelay = 2'000;
  static constexpr sim::Duration kPropagationDelay = 100;

  EthernetSwitch(sim::Simulator& simulator, std::string name,
                 EthernetConfig config);

  void send(Frame frame) override;
  std::size_t max_payload() const override;

  /// Installs a time-aware gate on the egress port towards `node`.
  void set_gate_control(NodeId node, GateControlList gcl);

  /// Serialization time of a frame with `payload` bytes on one link,
  /// including L2 header, FCS, preamble and interframe gap.
  sim::Duration frame_duration(std::size_t payload) const;

  std::uint64_t egress_drops() const { return egress_drops_; }

 protected:
  void on_attach(NodeId node) override { egress_[node]; }

 private:
  struct EgressPort {
    // Frame-pool slots (Medium::park) per class; index = Priority.
    std::array<std::deque<std::uint32_t>, 8> queues;
    bool busy = false;
    GateControlList gcl;
    sim::EventId pending_kick;  // scheduled gate-open re-evaluation
    std::uint32_t trace_lane = 0;  // interned "<switch>/egress<node>" id
  };

  void on_ingress_complete(std::uint32_t slot);
  void enqueue_egress(NodeId node, std::uint32_t slot);
  void try_transmit(NodeId node);
  /// Earliest time >= now at which a frame of class `p` lasting `tx` may
  /// start under the port's gate; nullopt if the GCL never opens that class.
  std::optional<sim::Time> gate_open_time(const EgressPort& port, Priority p,
                                          sim::Duration tx) const;

  EthernetConfig config_;
  std::map<NodeId, sim::Time> ingress_free_at_;  // per-node transmitter
  std::map<NodeId, EgressPort> egress_;
  std::uint64_t seq_ = 0;
  std::uint64_t egress_drops_ = 0;
};

}  // namespace dynaplat::net
