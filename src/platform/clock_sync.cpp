#include "platform/clock_sync.hpp"

#include <cstdlib>

#include "middleware/payload.hpp"

namespace dynaplat::platform {

namespace {

// Static one-way path-delay compensation added to announced timestamps.
constexpr sim::Duration kPathDelayEstimate = 20 * sim::kMicrosecond;

}  // namespace

ClockSyncService::ClockSyncService(middleware::ServiceRuntime& runtime,
                                   os::LocalClock& clock, bool master,
                                   ClockSyncConfig config)
    : runtime_(runtime), clock_(clock), master_(master), config_(config) {
  auto& simulator = runtime_.ecu().simulator();
  if (master_) {
    runtime_.offer(kClockSyncServiceId);
    beacon_ = simulator.schedule_every(
        simulator.now() + config_.sync_period, config_.sync_period, [this] {
          middleware::PayloadWriter writer;
          writer.i64(clock_.now());
          runtime_.publish(kClockSyncServiceId, kSyncEvent, writer.take(),
                           net::kPriorityHighest);
        });
  } else {
    runtime_.subscribe(
        kClockSyncServiceId, kSyncEvent,
        [this](std::vector<std::uint8_t> data, net::NodeId) {
          try {
            middleware::PayloadReader reader(data);
            const sim::Time master_time = reader.i64();
            const sim::Time local_time = clock_.now();
            // Sample the *pre-correction* error: the worst drift the node
            // accumulated since the previous sync — the figure distributed
            // TT tables and central switchovers actually suffer from. The
            // first sync acquires the initial offset, which is not drift.
            if (corrections_ > 0) {
              residual_.observe(
                  static_cast<std::int64_t>(std::llabs(clock_.true_error())));
            }
            // The announcement aged by ~path delay on its way here.
            const sim::Duration correction =
                (master_time + kPathDelayEstimate) - local_time;
            clock_.adjust(correction);
            ++corrections_;
          } catch (const std::out_of_range&) {
          }
        });
  }
}

ClockSyncService::~ClockSyncService() {
  if (beacon_.valid()) runtime_.ecu().simulator().cancel(beacon_);
}

}  // namespace dynaplat::platform
