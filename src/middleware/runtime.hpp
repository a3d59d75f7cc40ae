// Service-oriented middleware runtime (one instance per ECU).
//
// Implements the paper's three communication paradigms (Sec. 2.1, Fig. 3)
// over SOME/IP-style service discovery:
//   Event   — publish/subscribe one-way notifications; producer owns the
//             interface.
//   Message — two-way request/response (RPC); the service provider owns the
//             interface.
//   Stream  — one-way sequenced continuous data with loss accounting.
//
// Dynamic binding: consumers may subscribe/call before the provider exists;
// the runtime broadcasts a Find, parks the work and flushes it when an Offer
// arrives. This is the "RTE can link services and clients dynamically during
// runtime" behaviour the paper attributes to AUTOSAR Adaptive (Sec. 5.2).
//
// Middleware processing consumes CPU via Processor::submit, so a loaded ECU
// slows its own communication stack (and the platform's isolation machinery
// is measurably necessary, E1/E2).
//
// Security integration: an outbound tagger stamps MessageHeader::auth_tag
// and an inbound filter may reject messages (authentication + authorization,
// Sec. 4.2) — wired up by security::AuthenticationService.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "middleware/message.hpp"
#include "middleware/transport.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "os/ecu.hpp"

namespace dynaplat::middleware {

struct RuntimeConfig {
  /// Segmentation/reassembly + reliability knobs (TTL eviction, CRC32 +
  /// ack/retry reliable mode). Enable `transport.reliable` on every node of
  /// a platform at once — the flag changes the unicast wire format.
  TransportConfig transport;
};

using EventHandler =
    std::function<void(std::vector<std::uint8_t> data, net::NodeId source)>;
using StreamHandler =
    std::function<void(std::uint32_t sequence, std::vector<std::uint8_t>)>;
using MethodHandler = std::function<std::vector<std::uint8_t>(
    const std::vector<std::uint8_t>& request)>;
using ResponseHandler =
    std::function<void(bool ok, std::vector<std::uint8_t> response)>;

/// Stamps outbound headers (returns the auth tag for the message). `dst` is
/// the destination node (kBroadcast for discovery), so pairwise session keys
/// can be selected.
using OutboundTagger = std::function<std::uint64_t(
    net::NodeId dst, const MessageHeader&,
    const std::vector<std::uint8_t>& body)>;
/// Vets inbound messages; false drops the message.
using InboundFilter = std::function<bool(
    const MessageHeader&, const std::vector<std::uint8_t>& body)>;

class ServiceRuntime {
 public:
  explicit ServiceRuntime(os::Ecu& ecu, RuntimeConfig config = {});

  // --- Discovery -------------------------------------------------------------
  /// Announces this node as the provider of `service` (broadcast Offer).
  void offer(ServiceId service, std::uint32_t version = 1);
  void stop_offer(ServiceId service);
  bool offers(ServiceId service) const { return offered_.count(service) > 0; }
  /// Known provider of a service (self or learned from Offers).
  std::optional<net::NodeId> provider_of(ServiceId service) const;
  /// Learned interface version of a provider's offer.
  std::optional<std::uint32_t> provider_version(ServiceId service) const;

  /// Requires at least `min_version` of a service: Offers announcing an
  /// older version are ignored (the binding never forms — uncertainty
  /// about interface evolution is contained at discovery time).
  void require_version(ServiceId service, std::uint32_t min_version);

  /// Crash-restart recovery: forgets the learned provider of `service` and
  /// re-runs discovery, re-sending Subscribe for every local subscription
  /// once the (possibly relocated) provider answers the Find. A node that
  /// was dead while the service failed over rejoins the new provider
  /// instead of trusting its stale binding.
  void rebind(ServiceId service);
  std::uint64_t stale_offers_ignored() const { return stale_offers_; }

  // --- Event paradigm ----------------------------------------------------------
  void subscribe(ServiceId service, ElementId event, EventHandler handler);
  void unsubscribe(ServiceId service, ElementId event);
  void publish(ServiceId service, ElementId event,
               std::vector<std::uint8_t> data,
               net::Priority priority = net::kPriorityLowest);

  // --- Message paradigm (RPC) ---------------------------------------------------
  void provide_method(ServiceId service, ElementId method,
                      MethodHandler handler);
  void call(ServiceId service, ElementId method,
            std::vector<std::uint8_t> request, ResponseHandler on_response,
            net::Priority priority = net::kPriorityLowest);

  // --- Field paradigm (SOME/IP-style get/set/notify state) --------------------
  // A field is replicated state owned by the service provider: consumers
  // read it (get), request changes (set) and observe changes (notify).
  // Built from one method pair + one event per field, so it inherits the
  // transport, security and CPU-cost machinery of those paradigms.

  /// Provider side: hosts the field with an initial value.
  void provide_field(ServiceId service, ElementId field,
                     std::vector<std::uint8_t> initial_value);
  /// Current value on the provider (provider-side accessor).
  std::optional<std::vector<std::uint8_t>> field_value(ServiceId service,
                                                       ElementId field) const;
  /// Consumer side: one-shot read.
  void field_get(ServiceId service, ElementId field,
                 ResponseHandler on_value);
  /// Consumer side: request a change; responds with the accepted value.
  void field_set(ServiceId service, ElementId field,
                 std::vector<std::uint8_t> value, ResponseHandler on_result);
  /// Consumer side: notification on every change (plus one initial read).
  void subscribe_field(ServiceId service, ElementId field,
                       EventHandler on_change);

  /// Element-id encoding of a field's getter/setter/notifier; exposed for
  /// access-matrix derivation and tests.
  static ElementId field_getter(ElementId field) {
    return static_cast<ElementId>(0x8000u | field);
  }
  static ElementId field_setter(ElementId field) {
    return static_cast<ElementId>(0x9000u | field);
  }
  static ElementId field_notifier(ElementId field) {
    return static_cast<ElementId>(0xA000u | field);
  }

  // --- Stream paradigm ------------------------------------------------------------
  void subscribe_stream(ServiceId service, ElementId stream,
                        StreamHandler handler);
  void stream_send(ServiceId service, ElementId stream,
                   std::vector<std::uint8_t> data,
                   net::Priority priority = net::kPriorityLowest);
  /// Frames lost (sequence gaps) on a subscribed stream.
  std::uint64_t stream_losses(ServiceId service, ElementId stream) const;

  // --- Security hooks ----------------------------------------------------------------
  void set_outbound_tagger(OutboundTagger tagger) {
    tagger_ = std::move(tagger);
  }
  void set_inbound_filter(InboundFilter filter) {
    filter_ = std::move(filter);
  }

  // --- Introspection ------------------------------------------------------------------
  std::uint64_t messages_sent() const { return transport_.messages_sent(); }
  std::uint64_t messages_received() const {
    return transport_.messages_received();
  }
  std::uint64_t rejected_messages() const { return rejected_; }
  std::uint64_t failed_calls() const { return failed_calls_; }
  net::NodeId node() const { return ecu_.node_id(); }
  os::Ecu& ecu() { return ecu_; }

  /// The segmentation/reliability layer (retry/CRC/eviction statistics).
  Transport& transport() { return transport_; }
  const Transport& transport() const { return transport_; }

  /// Chain tracer (sampling counters); null when tracing is not wired up.
  const obs::ChainTracer* tracer() const { return tracer_.get(); }

  /// Invoked when a reliable message exhausts its retries (bounded-retry
  /// error surface; also counted in transport().delivery_failures()).
  void set_delivery_failure_handler(DeliveryFailureHandler handler) {
    transport_.set_delivery_failure_handler(std::move(handler));
  }

 private:
  struct Subscription {
    EventHandler event_handler;
    StreamHandler stream_handler;
    std::uint32_t next_sequence = 0;
    std::uint64_t losses = 0;
    bool subscribed_remotely = false;
  };

  struct PendingCall {
    ResponseHandler handler;
    sim::EventId timeout;
  };

  using Key = std::pair<ServiceId, ElementId>;

  void send_message(net::NodeId dst, MessageHeader header,
                    const std::vector<std::uint8_t>& body,
                    net::Priority priority, obs::TraceContext ctx = {});
  /// Zero-copy send: `body` is a refcounted block shared across
  /// destinations (publish/stream fan-out wraps the caller's vector once).
  void send_message_block(net::NodeId dst, MessageHeader header,
                          const net::BufferRef& body, net::Priority priority,
                          obs::TraceContext ctx = {});
  void on_message(net::NodeId src, net::Payload wire,
                  obs::TraceContext ctx = {});
  void dispatch(MessageHeader header, std::vector<std::uint8_t> body,
                const obs::TraceContext& ctx = {});
  /// Runs `fn` after charging message-processing CPU time.
  void charge(std::size_t bytes, std::function<void()> fn);
  /// Ensures a provider is known, parking `work` until the Offer arrives.
  void when_provider_known(ServiceId service, std::function<void()> work);
  void flush_parked(ServiceId service);
  std::uint32_t flow_for(ServiceId service, ElementId element) const;
  void note_failed_call() {
    ++failed_calls_;
    if (failed_calls_counter_ != nullptr) failed_calls_counter_->add();
  }

  os::Ecu& ecu_;
  Transport transport_;
  // Chain tracing policy (sampling + hop attribution); null when the ECU
  // has no trace.
  std::unique_ptr<obs::ChainTracer> tracer_;

  std::map<ServiceId, std::uint32_t> offered_;           // service -> version
  std::map<ServiceId, net::NodeId> providers_;           // learned offers
  std::map<ServiceId, std::uint32_t> provider_versions_;
  std::map<Key, std::set<net::NodeId>> remote_subscribers_;
  std::map<Key, Subscription> subscriptions_;
  std::map<Key, MethodHandler> methods_;
  std::map<Key, std::vector<std::uint8_t>> fields_;
  std::map<std::uint32_t, PendingCall> pending_calls_;
  std::map<Key, std::uint32_t> stream_sequences_;
  std::map<ServiceId, std::deque<std::function<void()>>> parked_;
  std::map<ServiceId, sim::EventId> find_timeouts_;
  std::map<ServiceId, std::uint32_t> required_versions_;
  std::uint64_t stale_offers_ = 0;

  OutboundTagger tagger_;
  InboundFilter filter_;
  std::uint32_t next_session_ = 1;
  std::uint64_t rejected_ = 0;
  std::uint64_t failed_calls_ = 0;

  // Cached instruments (registered under "mw.<ecu>.*" when the ECU carries
  // a trace); null when observability is not wired up.
  obs::Counter* offers_counter_ = nullptr;
  obs::Counter* subscribes_counter_ = nullptr;
  obs::Counter* calls_counter_ = nullptr;
  obs::Counter* failed_calls_counter_ = nullptr;
  obs::Histogram* call_latency_ns_ = nullptr;
  obs::Histogram* bind_latency_ns_ = nullptr;
};

}  // namespace dynaplat::middleware
