#include "os/resource.hpp"

namespace dynaplat::os {

void ResourceArbiter::request(int priority, sim::Duration service_time,
                              std::function<void()> done) {
  const int effective = fifo_only_ ? 0 : priority;
  Pending pending;
  pending.requested_at = sim_.now();
  pending.service_time = service_time;
  pending.priority = priority;  // true class, for attribution in stats
  pending.done = std::move(done);
  queue_.emplace(std::make_pair(effective, next_seq_++), std::move(pending));
  if (!busy_) start_next();
}

std::size_t ResourceArbiter::queued() const { return queue_.size(); }

const obs::Histogram& ResourceArbiter::wait_stats(int priority) const {
  return wait_stats_[priority];
}

void ResourceArbiter::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  auto it = queue_.begin();
  Pending pending = std::move(it->second);
  queue_.erase(it);
  wait_stats_[pending.priority].observe(sim_.now() - pending.requested_at);
  sim_.schedule_in(pending.service_time,
                   [this, done = std::move(pending.done)] {
                     ++served_;
                     if (done) done();
                     start_next();
                   });
}

}  // namespace dynaplat::os
