// Master-slave clock synchronization over the middleware.
//
// A minimal gPTP-flavoured protocol: the master broadcasts its local time
// every sync period; each slave corrects its LocalClock by the difference
// between the announced time (plus a static path-delay estimate) and its
// own reading at reception. Good enough to bound the inter-ECU error to a
// few network-jitter units — and to *measure* the residual error that the
// central-switch update baseline (Sec. 3.2) and distributed TT tables
// implicitly rely on.
#pragma once

#include "middleware/runtime.hpp"
#include "obs/metrics.hpp"
#include "os/clock.hpp"

namespace dynaplat::platform {

inline constexpr middleware::ServiceId kClockSyncServiceId = 0xF010;
inline constexpr middleware::ElementId kSyncEvent = 1;

struct ClockSyncConfig {
  sim::Duration sync_period = 100 * sim::kMillisecond;
};

class ClockSyncService {
 public:
  /// Master: broadcasts its clock. Slave: subscribes and corrects `clock`.
  ClockSyncService(middleware::ServiceRuntime& runtime, os::LocalClock& clock,
                   bool master, ClockSyncConfig config = {});
  ~ClockSyncService();

  bool is_master() const { return master_; }
  /// Residual |local - global| sampled before every correction after the
  /// first (slaves only); the first measures the start-up offset.
  const obs::Histogram& residual_error() const { return residual_; }
  std::uint64_t corrections() const { return corrections_; }

 private:
  middleware::ServiceRuntime& runtime_;
  os::LocalClock& clock_;
  bool master_;
  ClockSyncConfig config_;
  sim::EventId beacon_;
  obs::Histogram residual_;
  std::uint64_t corrections_ = 0;
};

}  // namespace dynaplat::platform
