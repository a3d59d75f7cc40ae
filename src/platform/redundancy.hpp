// Fail-operational redundancy (paper Sec. 3.3).
//
// "The fail-safe state of an autonomous vehicle is not necessarily a safe
// shutdown ... the dynamic platform needs to support instantiating
// applications multiple times [and] synchronize applications across ECUs."
//
// A RedundancyManager supervises one replicated app: the primary replica
// (active) publishes heartbeats carrying its serialized state on a dedicated
// platform service; standbys restore that state and watch for heartbeat
// loss. Failover uses staggered timeouts ordered by replica rank, so exactly
// one standby promotes itself — no election protocol, no single coordinator
// (master-slave as in RACE [1]).
#pragma once

#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace dynaplat::platform {

struct RedundancyConfig {
  sim::Duration heartbeat_period = 10 * sim::kMillisecond;
  /// Ship serialized state on every heartbeat (hot standby) or only every
  /// n-th (warm standby).
  int state_every_n_heartbeats = 1;
};

struct FailoverEvent {
  sim::Time detected_at = 0;
  sim::Time promoted_at = 0;
  net::NodeId new_primary = 0;
  /// Service outage: last heartbeat from the dead primary -> promotion.
  sim::Duration outage;
};

class RedundancyManager {
 public:
  /// `app_name` must be deployed with replicas > 1; replicas were installed
  /// by DynamicPlatform::install_all on the deployment's first N candidate
  /// ECUs (replica 0 active, the rest standby).
  RedundancyManager(DynamicPlatform& platform, std::string app_name,
                    RedundancyConfig config = {});
  ~RedundancyManager();

  /// Starts heartbeating + supervision.
  void engage();
  void disengage();

  /// ECU name of the replica currently owning the app's services.
  std::string current_primary() const;
  /// ECU names of all replicas, rank order (invariant checkers correlate
  /// injected crashes of these ECUs with observed failovers).
  std::vector<std::string> replica_ecus() const;
  const std::vector<FailoverEvent>& failovers() const { return failovers_; }
  std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }

  /// Service id used for this app's heartbeat/state channel.
  middleware::ServiceId heartbeat_service() const { return hb_service_; }

 private:
  struct Replica {
    std::string ecu_name;
    PlatformNode* node = nullptr;
    sim::Time last_heartbeat_seen = 0;
    sim::EventId supervisor;
    bool alive = true;
  };

  void start_heartbeats(std::size_t rank);
  void supervise(std::size_t rank);
  void promote(std::size_t rank);
  std::size_t primary_rank() const;
  /// Position of `rank` in the circular standby order behind the current
  /// primary (1 = first in line). Staggered failover timeouts scale with
  /// this, so exactly one standby wins no matter which replica leads.
  std::size_t stagger_of(std::size_t rank) const;

  DynamicPlatform& platform_;
  std::string app_name_;
  RedundancyConfig config_;
  middleware::ServiceId hb_service_;
  std::vector<Replica> replicas_;
  std::vector<FailoverEvent> failovers_;
  sim::EventId heartbeat_timer_;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  std::size_t active_rank_ = 0;  ///< rank currently leading (stagger anchor)
  bool engaged_ = false;
};

}  // namespace dynaplat::platform
