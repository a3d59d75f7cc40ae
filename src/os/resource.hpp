// Prioritized shared-hardware access (paper Sec. 3.1 "Hardware Access &
// Communication").
//
// "When a deterministic application needs to transmit data, these
// transmissions typically have an accompanying urgency. ... These
// conditions and order of priorities holds for all hardware access (e.g.,
// crypto module, persistent memory, etc.)"
//
// A ResourceArbiter serializes access to one hardware block (HSM, flash
// controller, DMA engine). Requests queue by priority (FIFO within a
// priority); service is non-preemptive — like a CAN frame, a started
// operation finishes — so the worst case a deterministic request suffers is
// one in-flight operation plus its own service time. Per-priority wait
// statistics expose exactly that bound (ablation: a FIFO-only arbiter).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace dynaplat::os {

class ResourceArbiter {
 public:
  /// `fifo_only` ignores priorities (the unmanaged baseline).
  ResourceArbiter(sim::Simulator& simulator, std::string name,
                  bool fifo_only = false)
      : sim_(simulator), name_(std::move(name)), fifo_only_(fifo_only) {}

  /// Requests the resource for `service_time`; `done` runs at completion.
  /// Lower priority value = more urgent.
  void request(int priority, sim::Duration service_time,
               std::function<void()> done = {});

  bool busy() const { return busy_; }
  std::size_t queued() const;
  /// Wait-time statistics (request -> service start) per priority level.
  const obs::Histogram& wait_stats(int priority) const;
  std::uint64_t served() const { return served_; }
  const std::string& name() const { return name_; }

 private:
  struct Pending {
    sim::Time requested_at = 0;
    sim::Duration service_time = 0;
    int priority = 0;  ///< true class (stats attribution in FIFO mode too)
    std::function<void()> done;
  };

  void start_next();

  sim::Simulator& sim_;
  std::string name_;
  bool fifo_only_;
  bool busy_ = false;
  // (effective priority, fifo seq) -> request. FIFO-only mode collapses all
  // priorities to one class.
  std::map<std::pair<int, std::uint64_t>, Pending> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t served_ = 0;
  mutable std::map<int, obs::Histogram> wait_stats_;
};

}  // namespace dynaplat::os
