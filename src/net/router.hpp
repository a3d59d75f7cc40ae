// Cross-network gateway routing.
//
// Current E/E architectures are "highly diverse" (Fig. 1): a CAN body
// domain, a FlexRay chassis domain and an Ethernet backbone coexist, joined
// by gateway ECUs. The Router models such a gateway: it occupies one node
// id on each attached medium and forwards frames whose flow ids match
// configured rules, optionally remapping priority (a CAN id's urgency must
// be translated into an 802.1Q class) and re-fragmenting implicitly via the
// target medium's payload limit.
//
// Forwarding consumes gateway CPU when a Processor is attached, so a
// saturated gateway becomes a visible bottleneck — one of the paper's
// motivations for flat Ethernet backbones.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "net/medium.hpp"

namespace dynaplat::net {

struct RouteRule {
  /// Inclusive flow-id range matched on the source medium.
  std::uint32_t flow_min = 0;
  std::uint32_t flow_max = 0xFFFFFFFF;
  /// Destination node on the target medium; kBroadcast floods.
  NodeId destination = kBroadcast;
  /// Priority override on the target medium; nullopt keeps the original.
  std::optional<Priority> remap_priority = std::nullopt;

  bool matches(std::uint32_t flow) const {
    return flow >= flow_min && flow <= flow_max;
  }
};

class Router {
 public:
  /// Defers `work` onto the gateway's CPU (typically a bound
  /// os::Processor::submit); invoked once per forwarded frame. An empty
  /// submitter forwards instantly (zero-cost gateway ablation).
  using WorkSubmitter = std::function<void(std::function<void()> work)>;

  /// Attaches the gateway between two media as `node_a` on `a` and
  /// `node_b` on `b`.
  Router(Medium& a, NodeId node_a, Medium& b, NodeId node_b,
         WorkSubmitter submit = {});
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Adds a forwarding rule for frames arriving on `a` (towards `b`).
  void route_a_to_b(RouteRule rule) { rules_ab_.push_back(rule); }
  /// Adds a forwarding rule for frames arriving on `b` (towards `a`).
  void route_b_to_a(RouteRule rule) { rules_ba_.push_back(rule); }

  std::uint64_t frames_forwarded() const { return forwarded_; }
  std::uint64_t frames_filtered() const { return filtered_; }
  /// Frames that matched a rule but exceeded the target medium's payload
  /// limit (the gateway does not fragment; the transport layer must).
  std::uint64_t frames_oversize() const { return oversize_; }

 private:
  void forward(const Frame& frame, const std::vector<RouteRule>& rules,
               Medium& target, NodeId egress_node);

  Medium& a_;
  Medium& b_;
  NodeId node_a_;
  NodeId node_b_;
  WorkSubmitter submit_;
  std::vector<RouteRule> rules_ab_;
  std::vector<RouteRule> rules_ba_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t filtered_ = 0;
  std::uint64_t oversize_ = 0;
};

}  // namespace dynaplat::net
