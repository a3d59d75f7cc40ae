// CAN bus model (ISO 11898 classic CAN, 11-bit identifiers).
//
// Models the two properties that matter for the paper's interference
// arguments (Sec. 3.1 / Sec. 5.3): global priority arbitration by frame ID
// (lowest ID wins whenever the bus goes idle) and non-preemptive frame
// transmission (an urgent frame waits for at most one in-flight lower
// priority frame). Frame duration includes worst-case bit stuffing.
#pragma once

#include <cstdint>
#include <vector>

#include "net/medium.hpp"

namespace dynaplat::net {

struct CanBusConfig {
  std::uint64_t bitrate_bps = 500'000;  ///< classic high-speed CAN
  /// CAN FD: 64-byte payloads and a faster data phase. The arbitration
  /// phase stays at bitrate_bps (all nodes must contend), the data phase
  /// switches to 2 Mbit/s.
  bool fd = false;
};

class CanBus final : public Medium {
 public:
  CanBus(sim::Simulator& simulator, std::string name, CanBusConfig config);

  void send(Frame frame) override;
  /// Burst enqueue: all frames join arbitration before the bus restarts.
  /// One message's fragments share priority and flow_id, hence one
  /// arbitration id and one FIFO — delivery order and timing are identical
  /// to N send() calls, but the arbitration restart runs once per burst.
  void send_batch(std::vector<Frame>& frames) override;
  std::size_t max_payload() const override { return config_.fd ? 64 : 8; }

  /// On-wire duration of a frame with `dlc` payload bytes, including
  /// worst-case stuff bits and interframe space. Classic: 0..8 bytes at the
  /// single bitrate. FD: 0..64 bytes, data phase at 2 Mbit/s.
  sim::Duration frame_duration(std::size_t dlc) const;

  /// Effective 11-bit arbitration id used for a frame.
  std::uint32_t arbitration_id(const Frame& frame) const;

  bool busy() const { return busy_; }
  std::size_t queued() const { return pending_.size(); }

 private:
  // A frame contending for the bus; the frame itself waits in the medium's
  // frame pool.
  struct Contender {
    std::uint32_t id = 0;  // arbitration id
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;  // send order: FIFO among frames of one id

    // Heap order: std::push_heap/pop_heap keep the greatest element on top,
    // so the arbitration winner must compare greatest.
    static bool loses_to(const Contender& a, const Contender& b) {
      return a.id != b.id ? a.id > b.id : a.seq > b.seq;
    }
  };

  void enqueue(Frame& frame);
  void try_start_transmission();
  void finish_transmission();

  CanBusConfig config_;
  // Binary min-heap on (arbitration id, seq) over every pending frame: the
  // queue *is* the arbitration. Lowest id wins the idle bus; FIFO per id
  // preserves per-sender ordering.
  std::vector<Contender> pending_;
  bool busy_ = false;
  std::uint32_t in_flight_ = 0;  // pool slot of the frame on the wire
  std::uint64_t seq_ = 0;
};

}  // namespace dynaplat::net
