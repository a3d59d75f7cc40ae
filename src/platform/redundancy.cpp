#include "platform/redundancy.hpp"

#include "middleware/payload.hpp"

namespace dynaplat::platform {

namespace {
constexpr middleware::ElementId kHeartbeatEvent = 1;
// Heartbeats missed before the rank-1 standby takes over; rank-k waits k
// times as long (staggered timeouts).
constexpr int kMissedForFailover = 3;
}

RedundancyManager::RedundancyManager(DynamicPlatform& platform,
                                     std::string app_name,
                                     RedundancyConfig config)
    : platform_(platform), app_name_(std::move(app_name)), config_(config),
      hb_service_(platform_.service_id(app_name_ + "/__heartbeat")) {
  const auto* binding = platform_.deployment().find(app_name_);
  const model::AppDef* def = platform_.system_model().app(app_name_);
  if (binding == nullptr || def == nullptr) return;
  const int replicas = std::max(1, def->replicas);
  for (int rank = 0; rank < replicas &&
                     rank < static_cast<int>(binding->candidates.size());
       ++rank) {
    Replica replica;
    replica.ecu_name = binding->candidates[static_cast<std::size_t>(rank)];
    replica.node = platform_.node(replica.ecu_name);
    replicas_.push_back(std::move(replica));
  }
}

RedundancyManager::~RedundancyManager() { disengage(); }

std::size_t RedundancyManager::primary_rank() const {
  for (std::size_t rank = 0; rank < replicas_.size(); ++rank) {
    const Replica& replica = replicas_[rank];
    if (replica.node == nullptr) continue;
    const AppInstance* inst = replica.node->instance(app_name_);
    if (inst != nullptr && inst->running && inst->app->active() &&
        !replica.node->ecu().failed()) {
      return rank;
    }
  }
  return replicas_.size();
}

std::vector<std::string> RedundancyManager::replica_ecus() const {
  std::vector<std::string> names;
  names.reserve(replicas_.size());
  for (const Replica& replica : replicas_) names.push_back(replica.ecu_name);
  return names;
}

std::string RedundancyManager::current_primary() const {
  const std::size_t rank = primary_rank();
  return rank < replicas_.size() ? replicas_[rank].ecu_name : "";
}

void RedundancyManager::engage() {
  if (engaged_ || replicas_.empty()) return;
  engaged_ = true;
  active_rank_ = primary_rank();
  // Every replica subscribes to the heartbeat/state channel — including the
  // initial primary, so that after being deposed it can rebind to the new
  // leader's heartbeats instead of promoting itself on stale silence.
  for (std::size_t rank = 0; rank < replicas_.size(); ++rank) {
    Replica& replica = replicas_[rank];
    if (replica.node == nullptr) continue;
    replica.last_heartbeat_seen = platform_.simulator().now();
    Replica* self = &replica;
    const std::string app = app_name_;
    replica.node->comm().subscribe(
        hb_service_, kHeartbeatEvent,
        [this, self, app](std::vector<std::uint8_t> data, net::NodeId) {
          self->last_heartbeat_seen = platform_.simulator().now();
          // Restore shipped state into the standby instance.
          if (self->node == nullptr || data.empty()) return;
          AppInstance* inst = self->node->instance(app);
          if (inst != nullptr && inst->running && !inst->app->active()) {
            try {
              middleware::PayloadReader reader(data);
              reader.u64();  // sequence
              const auto state = reader.blob();
              if (!state.empty()) inst->app->restore_state(state);
            } catch (const std::out_of_range&) {
              // Corrupt heartbeat: count as missed (no timestamp update
              // rollback needed; the state simply is not applied).
            }
          }
        });
    if (rank != active_rank_) supervise(rank);
  }
  start_heartbeats(active_rank_);
}

std::size_t RedundancyManager::stagger_of(std::size_t rank) const {
  const std::size_t n = replicas_.size();
  if (n == 0 || rank == active_rank_) return 0;
  return rank > active_rank_ ? rank - active_rank_
                             : n - active_rank_ + rank;
}

void RedundancyManager::disengage() {
  if (!engaged_) return;
  engaged_ = false;
  platform_.simulator().cancel(heartbeat_timer_);
  heartbeat_timer_ = {};
  for (auto& replica : replicas_) {
    platform_.simulator().cancel(replica.supervisor);
    replica.supervisor = {};
  }
}

void RedundancyManager::start_heartbeats(std::size_t rank) {
  if (rank >= replicas_.size()) return;
  platform_.simulator().cancel(heartbeat_timer_);
  Replica* primary = &replicas_[rank];
  // The heartbeat service is offered by whichever node currently leads.
  if (primary->node != nullptr) {
    primary->node->comm().offer(hb_service_);
  }
  heartbeat_timer_ = platform_.simulator().schedule_every(
      platform_.simulator().now() + config_.heartbeat_period,
      config_.heartbeat_period, [this, primary] {
        if (!engaged_ || primary->node == nullptr ||
            primary->node->ecu().failed()) {
          return;  // dead primaries do not heartbeat; standbys notice
        }
        AppInstance* inst = primary->node->instance(app_name_);
        if (inst == nullptr || !inst->running || !inst->app->active()) {
          return;
        }
        middleware::PayloadWriter writer;
        writer.u64(heartbeat_seq_++);
        const bool ship_state =
            config_.state_every_n_heartbeats > 0 &&
            heartbeat_seq_ %
                    static_cast<std::uint64_t>(
                        config_.state_every_n_heartbeats) ==
                0;
        writer.blob(ship_state ? inst->app->serialize_state()
                               : std::vector<std::uint8_t>{});
        ++heartbeats_sent_;
        primary->node->comm().publish(hb_service_, kHeartbeatEvent,
                                      writer.take(),
                                      net::kPriorityHighest);
      });
}

void RedundancyManager::supervise(std::size_t rank) {
  Replica& replica = replicas_[rank];
  if (replica.node == nullptr) return;
  // Staggered timeout: rank k waits k * missed * period before promoting,
  // so lower-ranked standbys always win the race.
  const sim::Duration check_period = config_.heartbeat_period;
  replica.supervisor = platform_.simulator().schedule_every(
      platform_.simulator().now() + check_period, check_period,
      [this, rank] {
        if (!engaged_) return;
        Replica& self = replicas_[rank];
        if (self.node == nullptr) return;
        if (self.node->ecu().failed()) {
          self.alive = false;
          return;
        }
        if (!self.alive) {
          // Crash-restart: rejoin as a standby. The heartbeat service may
          // have failed over while this node was dead, so its provider
          // binding is stale — rediscover it, and restart the silence
          // clock so the rejoiner waits a full staggered timeout before
          // ever racing for promotion.
          self.alive = true;
          self.last_heartbeat_seen = platform_.simulator().now();
          self.node->comm().rebind(hb_service_);
          return;
        }
        const AppInstance* inst = self.node->instance(app_name_);
        if (inst == nullptr || !inst->running) return;
        if (inst->app->active()) return;  // already primary
        const sim::Duration silence =
            platform_.simulator().now() - self.last_heartbeat_seen;
        const sim::Duration limit =
            static_cast<sim::Duration>(stagger_of(rank)) *
            static_cast<sim::Duration>(kMissedForFailover) *
            config_.heartbeat_period;
        if (silence <= limit) return;
        if (!self.node->comm().provider_of(hb_service_)) {
          // Silent *and* no known heartbeat provider: this replica was
          // deposed or is rejoining, and cannot distinguish "primary dead"
          // from "I am partitioned away" — so it must not promote
          // (consistency over availability). Keep re-running discovery;
          // heartbeats resume once the partition heals or the new primary
          // answers the Find. Silence only accumulates while a provider is
          // bound — otherwise discovery completing just before the first
          // heartbeat would read as a full outage and flap leadership back.
          self.last_heartbeat_seen = platform_.simulator().now();
          self.node->comm().rebind(hb_service_);
          return;
        }
        promote(rank);
      });
}

void RedundancyManager::promote(std::size_t rank) {
  Replica& replica = replicas_[rank];
  if (replica.node == nullptr) return;
  FailoverEvent event;
  event.detected_at = platform_.simulator().now();
  // Fence the deposed primary (and any other stale active instance): a
  // crashed replica that later restarts must come back as a standby, not
  // reclaim the services its successor now owns.
  for (std::size_t other = 0; other < replicas_.size(); ++other) {
    if (other == rank || replicas_[other].node == nullptr) continue;
    replicas_[other].node->demote(app_name_);
    // The deposed primary also stops offering the heartbeat channel, so a
    // rejoining node's rediscovery binds to the new leader's offer.
    if (replicas_[other].node->comm().offers(hb_service_)) {
      replicas_[other].node->comm().stop_offer(hb_service_);
    }
    // Every demoted replica rebuilds its heartbeat binding towards the new
    // leader (its old binding may point at itself or at the dead primary).
    replicas_[other].node->comm().rebind(hb_service_);
  }
  replica.node->promote(app_name_);
  event.promoted_at = platform_.simulator().now();
  event.new_primary = replica.node->ecu().node_id();
  event.outage = event.promoted_at - replica.last_heartbeat_seen;
  failovers_.push_back(event);
  // The new primary starts heartbeating so deeper standbys stand down; its
  // own supervisor is no longer needed.
  platform_.simulator().cancel(replica.supervisor);
  replica.supervisor = {};
  active_rank_ = rank;
  replica.last_heartbeat_seen = platform_.simulator().now();
  // Re-anchor the staggered timeouts of the remaining standbys to the new
  // primary (the deposed one rejoins the back of the line once it recovers).
  for (std::size_t other = 0; other < replicas_.size(); ++other) {
    if (other == rank || replicas_[other].node == nullptr) continue;
    platform_.simulator().cancel(replicas_[other].supervisor);
    replicas_[other].last_heartbeat_seen = platform_.simulator().now();
    supervise(other);
  }
  start_heartbeats(rank);
}

}  // namespace dynaplat::platform
