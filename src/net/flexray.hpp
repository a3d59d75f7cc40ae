// FlexRay-style hybrid TDMA bus.
//
// Models the property the paper leans on in Sec. 5.3: a communication cycle
// split into a *static segment* (time-triggered slots statically assigned to
// flows — deterministic latency independent of other traffic) and a *dynamic
// segment* (priority-ordered minislot arbitration for best-effort traffic).
// Used as the classical mixed-criticality baseline against TSN in E9.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "net/medium.hpp"

namespace dynaplat::net {

struct FlexRayConfig {
  std::uint64_t bitrate_bps = 10'000'000;  ///< FlexRay 10 Mbit/s channel
  std::size_t static_slots = 30;
  sim::Duration static_slot_duration = 50'000;   ///< 50 us
  std::size_t minislots = 100;
};

class FlexRayBus final : public Medium {
 public:
  FlexRayBus(sim::Simulator& simulator, std::string name,
             FlexRayConfig config);

  /// Reserves static slot `slot` (0-based) for frames with this flow id.
  /// One flow per slot; re-assigning replaces the previous owner.
  void assign_static_slot(std::size_t slot, std::uint32_t flow_id);

  /// Frames whose flow id owns a static slot ride the static segment;
  /// everything else arbitrates the dynamic segment by priority.
  void send(Frame frame) override;
  /// Burst enqueue: all frames join their segment queues before the cycle
  /// scheduling check runs once. Same queue state and cycle alignment as N
  /// send() calls.
  void send_batch(std::vector<Frame>& frames) override;
  std::size_t max_payload() const override;

  sim::Duration cycle_duration() const;
  /// On-wire duration of a dynamic-segment frame with `payload` bytes
  /// (header and trailer included) at the channel bitrate.
  sim::Duration frame_duration(std::size_t payload) const;
  std::uint64_t cycles_run() const { return cycles_run_; }

 private:
  void enqueue(Frame frame);
  void ensure_cycle_scheduled();
  void run_cycle();

  FlexRayConfig config_;
  std::map<std::size_t, std::uint32_t> slot_owner_;    // slot -> flow id
  std::map<std::uint32_t, std::size_t> flow_slot_;     // flow id -> slot
  std::map<std::uint32_t, std::deque<Frame>> static_pending_;  // by flow
  // Dynamic segment queue ordered by (priority, fifo seq).
  std::map<std::pair<Priority, std::uint64_t>, Frame> dynamic_pending_;
  std::uint64_t seq_ = 0;
  std::uint64_t cycles_run_ = 0;
  bool cycle_scheduled_ = false;
};

}  // namespace dynaplat::net
