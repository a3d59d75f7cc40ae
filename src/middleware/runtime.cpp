#include "middleware/runtime.hpp"

#include <memory>

#include <cassert>

namespace dynaplat::middleware {

namespace {

// CPU cost of middleware processing per message: a fixed part plus a part
// per KiB of wire bytes.
constexpr std::uint64_t kInstructionsPerMessage = 2000;
constexpr std::uint64_t kInstructionsPerKib = 500;
// Priority of middleware work items (NDA class).
constexpr int kServicePriority = 8;
constexpr sim::Duration kCallTimeout = 100 * sim::kMillisecond;
// How long a Find waits for an Offer before parked work fails.
constexpr sim::Duration kFindTimeout = 200 * sim::kMillisecond;

// Each node's transport needs its own retransmit-jitter stream — with a
// shared stream every peer draws the same jitter sequence and a healed
// partition still retries in lockstep. An explicit jitter_stream wins;
// the node id is only the default.
TransportConfig with_node_jitter_stream(TransportConfig config,
                                        net::NodeId node) {
  if (config.jitter_stream == 0) config.jitter_stream = node;
  return config;
}

}  // namespace

ServiceRuntime::ServiceRuntime(os::Ecu& ecu, RuntimeConfig config)
    : ecu_(ecu),
      transport_([&ecu](net::Frame frame) { ecu.send(std::move(frame)); },
                 ecu.medium() != nullptr ? ecu.medium()->max_payload()
                                         : 1500,
                 ecu.simulator(),
                 with_node_jitter_stream(config.transport, ecu.node_id())) {
  ecu_.set_receive_handler(
      [this](const net::Frame& frame) { transport_.on_frame(frame); });
  transport_.set_batch_sender([&ecu](std::vector<net::Frame>& frames) {
    ecu.send_batch(frames);
  });
  transport_.set_handler([this](net::NodeId src, net::Payload message,
                                const obs::TraceContext& ctx) {
    on_message(src, std::move(message), ctx);
  });
  if (ecu_.trace() != nullptr) {
    auto& metrics = ecu_.trace()->metrics();
    const std::string prefix = "mw." + ecu_.name() + ".";
    offers_counter_ = &metrics.counter(prefix + "offers");
    subscribes_counter_ = &metrics.counter(prefix + "subscribes");
    calls_counter_ = &metrics.counter(prefix + "calls");
    failed_calls_counter_ = &metrics.counter(prefix + "failed_calls");
    call_latency_ns_ = &metrics.histogram(prefix + "call_latency_ns");
    bind_latency_ns_ = &metrics.histogram(prefix + "bind_latency_ns");
    transport_.set_metrics(metrics, prefix + "transport.");
    transport_.set_coverage(&ecu_.trace()->coverage());
    // A platform samples every chain.
    tracer_ = std::make_unique<obs::ChainTracer>(
        ecu_.trace()->buffer(), metrics, ecu_.name() + "/chain",
        static_cast<std::uint32_t>(ecu_.node_id()),
        obs::ChainTracerConfig{.sample_every = 1});
    transport_.set_tracer(tracer_.get());
  }
}

std::uint32_t ServiceRuntime::flow_for(ServiceId service,
                                       ElementId element) const {
  return (std::uint32_t(service) << 8) ^ element;
}

void ServiceRuntime::charge(std::size_t bytes, std::function<void()> fn) {
  if (ecu_.failed() || ecu_.processor().halted()) {
    if (!ecu_.failed()) fn();
    return;
  }
  const std::uint64_t instructions =
      kInstructionsPerMessage + kInstructionsPerKib * (bytes / 1024);
  ecu_.processor().submit("mw", instructions, kServicePriority,
                          os::TaskClass::kNonDeterministic, std::move(fn));
}

void ServiceRuntime::send_message(net::NodeId dst, MessageHeader header,
                                  const std::vector<std::uint8_t>& body,
                                  net::Priority priority,
                                  obs::TraceContext ctx) {
  send_message_block(dst, header, net::BufferRef::adopt_vector(body),
                     priority, ctx);
}

void ServiceRuntime::send_message_block(net::NodeId dst, MessageHeader header,
                                        const net::BufferRef& body,
                                        net::Priority priority,
                                        obs::TraceContext ctx) {
  header.sender = ecu_.node_id();
  // The tagger API speaks vectors; adopted blocks expose theirs by
  // reference, so stamping stays copy-free.
  if (tagger_) header.auth_tag = tagger_(dst, header, *body->vec());
  // Wire chain = 21-byte header in a recycled arena block + a view of the
  // shared body block. Nothing is linearized between here and the frames.
  PayloadWriter w(transport_.arena());
  header.encode_header(w);
  net::Payload wire = w.take_chain();
  wire.append(body, 0, body->size());
  const ServiceId service = header.service;
  const ElementId element = header.element;
  charge(wire.size(), [this, dst, priority, service, element, ctx,
                       wire = std::move(wire)]() mutable {
    // The transport stamps ctx.sent_ns here, after the CPU charge, so the
    // serialize segment covers middleware processing time.
    transport_.send(dst, priority, flow_for(service, element),
                    std::move(wire), ctx);
  });
}

// --- Discovery ----------------------------------------------------------------

void ServiceRuntime::offer(ServiceId service, std::uint32_t version) {
  if (offers_counter_ != nullptr) offers_counter_->add();
  offered_[service] = version;
  providers_[service] = ecu_.node_id();
  provider_versions_[service] = version;
  MessageHeader header;
  header.type = MsgType::kOffer;
  header.service = service;
  header.session = version;
  send_message(net::kBroadcast, header, {}, net::kPriorityHighest);
  flush_parked(service);
}

void ServiceRuntime::stop_offer(ServiceId service) {
  offered_.erase(service);
  if (providers_.count(service) &&
      providers_[service] == ecu_.node_id()) {
    providers_.erase(service);
    provider_versions_.erase(service);
  }
}

std::optional<net::NodeId> ServiceRuntime::provider_of(
    ServiceId service) const {
  auto it = providers_.find(service);
  if (it == providers_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> ServiceRuntime::provider_version(
    ServiceId service) const {
  auto it = provider_versions_.find(service);
  if (it == provider_versions_.end()) return std::nullopt;
  return it->second;
}

void ServiceRuntime::require_version(ServiceId service,
                                     std::uint32_t min_version) {
  required_versions_[service] = min_version;
  // Forget an already-bound provider that is too old.
  auto version = provider_versions_.find(service);
  if (version != provider_versions_.end() &&
      version->second < min_version) {
    providers_.erase(service);
    provider_versions_.erase(version);
  }
}

void ServiceRuntime::rebind(ServiceId service) {
  if (offered_.count(service) > 0) return;  // still the provider of record
  providers_.erase(service);
  provider_versions_.erase(service);
  when_provider_known(service, [this, service] {
    const auto provider = provider_of(service);
    if (!provider || *provider == ecu_.node_id()) return;
    for (auto& [key, sub] : subscriptions_) {
      if (key.first != service) continue;
      MessageHeader header;
      header.type = MsgType::kSubscribe;
      header.service = key.first;
      header.element = key.second;
      send_message(*provider, header, {}, net::kPriorityHighest);
      sub.subscribed_remotely = true;
    }
  });
}

void ServiceRuntime::when_provider_known(ServiceId service,
                                         std::function<void()> work) {
  if (providers_.count(service)) {
    work();
    return;
  }
  // Parked work measures binding latency: park time -> execution (Offer
  // arrival or Find timeout).
  const sim::Time parked_at = ecu_.simulator().now();
  parked_[service].push_back(
      [this, parked_at, work = std::move(work)]() mutable {
        if (bind_latency_ns_ != nullptr) {
          bind_latency_ns_->observe(
              static_cast<double>(ecu_.simulator().now() - parked_at));
        }
        work();
      });
  if (find_timeouts_.count(service)) return;  // Find already outstanding
  MessageHeader header;
  header.type = MsgType::kFind;
  header.service = service;
  send_message(net::kBroadcast, header, {}, net::kPriorityHighest);
  find_timeouts_[service] = ecu_.simulator().schedule_in(
      kFindTimeout, [this, service] {
        find_timeouts_.erase(service);
        // Provider never appeared: *run* the parked work against the
        // still-unknown provider so callers observe the failure (an RPC's
        // response handler fires with ok == false; a subscribe re-parks
        // nothing and simply waits for a future Offer).
        auto it = parked_.find(service);
        if (it == parked_.end()) return;
        auto work = std::move(it->second);
        parked_.erase(it);
        for (auto& fn : work) fn();
      });
}

void ServiceRuntime::flush_parked(ServiceId service) {
  auto timeout = find_timeouts_.find(service);
  if (timeout != find_timeouts_.end()) {
    ecu_.simulator().cancel(timeout->second);
    find_timeouts_.erase(timeout);
  }
  auto it = parked_.find(service);
  if (it == parked_.end()) return;
  auto work = std::move(it->second);
  parked_.erase(it);
  for (auto& fn : work) fn();
}

// --- Events ----------------------------------------------------------------------

void ServiceRuntime::subscribe(ServiceId service, ElementId event,
                               EventHandler handler) {
  if (subscribes_counter_ != nullptr) subscribes_counter_->add();
  auto& sub = subscriptions_[{service, event}];
  sub.event_handler = std::move(handler);
  when_provider_known(service, [this, service, event] {
    const auto provider = provider_of(service);
    if (!provider) return;
    auto& sub = subscriptions_[{service, event}];
    if (*provider == ecu_.node_id()) {
      sub.subscribed_remotely = true;  // local: nothing to send
      return;
    }
    MessageHeader header;
    header.type = MsgType::kSubscribe;
    header.service = service;
    header.element = event;
    send_message(*provider, header, {}, net::kPriorityHighest);
    sub.subscribed_remotely = true;
  });
}

void ServiceRuntime::unsubscribe(ServiceId service, ElementId event) {
  const Key key{service, event};
  auto it = subscriptions_.find(key);
  if (it == subscriptions_.end()) return;
  const bool was_remote = it->second.subscribed_remotely;
  subscriptions_.erase(it);
  const auto provider = provider_of(service);
  if (was_remote && provider && *provider != ecu_.node_id()) {
    MessageHeader header;
    header.type = MsgType::kUnsubscribe;
    header.service = service;
    header.element = event;
    send_message(*provider, header, {}, net::kPriorityHighest);
  }
}

void ServiceRuntime::publish(ServiceId service, ElementId event,
                             std::vector<std::uint8_t> data,
                             net::Priority priority) {
  assert(offered_.count(service) && "publishing on a service not offered");
  MessageHeader header;
  header.type = MsgType::kNotify;
  header.service = service;
  header.element = event;

  // Wrap the payload once; local dispatch and every remote notification
  // share the same refcounted block (the handler copy at the app boundary
  // is the only byte copy left on this path).
  net::BufferRef body = net::BufferRef::adopt_vector(std::move(data));

  // Local subscribers: dispatch through the CPU (RTE-local path).
  auto local = subscriptions_.find({service, event});
  if (local != subscriptions_.end() && local->second.event_handler) {
    charge(body->size(), [this, service, event, body] {
      auto it = subscriptions_.find({service, event});
      if (it != subscriptions_.end() && it->second.event_handler) {
        it->second.event_handler(*body->vec(), ecu_.node_id());
      }
    });
  }
  // Remote subscribers: one notification each, sharing one chain context
  // (same trace id, one end-to-end close per receiver).
  auto remotes = remote_subscribers_.find({service, event});
  if (remotes != remote_subscribers_.end() && !remotes->second.empty()) {
    const obs::TraceContext ctx =
        tracer_ != nullptr
            ? tracer_->start(
                  static_cast<std::uint64_t>(ecu_.simulator().now()))
            : obs::TraceContext{};
    for (net::NodeId dst : remotes->second) {
      send_message_block(dst, header, body, priority, ctx);
    }
  }
}

// --- RPC -----------------------------------------------------------------------------

void ServiceRuntime::provide_method(ServiceId service, ElementId method,
                                    MethodHandler handler) {
  methods_[{service, method}] = std::move(handler);
}

void ServiceRuntime::call(ServiceId service, ElementId method,
                          std::vector<std::uint8_t> request,
                          ResponseHandler on_response,
                          net::Priority priority) {
  if (calls_counter_ != nullptr) calls_counter_->add();
  if (call_latency_ns_ != nullptr) {
    // Wrap before binding so the latency sample covers discovery + charge +
    // transport + provider execution, success or failure.
    const sim::Time issued_at = ecu_.simulator().now();
    on_response = [this, issued_at, inner = std::move(on_response)](
                      bool ok, std::vector<std::uint8_t> response) {
      call_latency_ns_->observe(
          static_cast<double>(ecu_.simulator().now() - issued_at));
      if (inner) inner(ok, std::move(response));
    };
  }
  when_provider_known(
      service,
      [this, service, method, request = std::move(request),
       on_response = std::move(on_response), priority]() mutable {
        const auto provider = provider_of(service);
        if (!provider) {
          note_failed_call();
          if (on_response) on_response(false, {});
          return;
        }
        const std::uint32_t session = next_session_++;
        // Local provider: invoke the handler through the CPU.
        if (*provider == ecu_.node_id()) {
          auto it = methods_.find({service, method});
          if (it == methods_.end()) {
            note_failed_call();
            if (on_response) on_response(false, {});
            return;
          }
          charge(request.size(),
                 [this, service, method, request = std::move(request),
                  on_response = std::move(on_response)]() mutable {
                   auto handler = methods_.find({service, method});
                   if (handler == methods_.end()) {
                     note_failed_call();
                     if (on_response) on_response(false, {});
                     return;
                   }
                   auto response = handler->second(request);
                   charge(response.size(),
                          [on_response = std::move(on_response),
                           response = std::move(response)]() mutable {
                            if (on_response) {
                              on_response(true, std::move(response));
                            }
                          });
                 });
          return;
        }
        // Remote provider: correlate by session with a timeout.
        PendingCall pending;
        pending.handler = std::move(on_response);
        pending.timeout = ecu_.simulator().schedule_in(
            kCallTimeout, [this, session] {
              auto it = pending_calls_.find(session);
              if (it == pending_calls_.end()) return;
              auto handler = std::move(it->second.handler);
              pending_calls_.erase(it);
              note_failed_call();
              if (handler) handler(false, {});
            });
        pending_calls_.emplace(session, std::move(pending));
        MessageHeader header;
        header.type = MsgType::kRequest;
        header.service = service;
        header.element = method;
        header.session = session;
        const obs::TraceContext ctx =
            tracer_ != nullptr
                ? tracer_->start(
                      static_cast<std::uint64_t>(ecu_.simulator().now()))
                : obs::TraceContext{};
        send_message(*provider, header, request, priority, ctx);
      });
}

// --- Fields ------------------------------------------------------------------------------

void ServiceRuntime::provide_field(ServiceId service, ElementId field,
                                   std::vector<std::uint8_t> initial_value) {
  const Key key{service, field};
  fields_[key] = std::move(initial_value);
  provide_method(service, field_getter(field),
                 [this, key](const std::vector<std::uint8_t>&) {
                   return fields_[key];
                 });
  provide_method(
      service, field_setter(field),
      [this, service, field, key](const std::vector<std::uint8_t>& value) {
        fields_[key] = value;
        publish(service, field_notifier(field), value,
                net::kPriorityLowest);
        return value;  // accepted value echoes back
      });
}

std::optional<std::vector<std::uint8_t>> ServiceRuntime::field_value(
    ServiceId service, ElementId field) const {
  auto it = fields_.find({service, field});
  if (it == fields_.end()) return std::nullopt;
  return it->second;
}

void ServiceRuntime::field_get(ServiceId service, ElementId field,
                               ResponseHandler on_value) {
  call(service, field_getter(field), {}, std::move(on_value));
}

void ServiceRuntime::field_set(ServiceId service, ElementId field,
                               std::vector<std::uint8_t> value,
                               ResponseHandler on_result) {
  call(service, field_setter(field), std::move(value),
       std::move(on_result));
}

void ServiceRuntime::subscribe_field(ServiceId service, ElementId field,
                                     EventHandler on_change) {
  // Seed with the current value, then follow changes.
  auto handler = std::make_shared<EventHandler>(std::move(on_change));
  subscribe(service, field_notifier(field),
            [handler](std::vector<std::uint8_t> value, net::NodeId source) {
              (*handler)(std::move(value), source);
            });
  field_get(service, field,
            [this, handler, service](bool ok,
                                     std::vector<std::uint8_t> value) {
              if (!ok) return;
              const auto provider = provider_of(service);
              (*handler)(std::move(value),
                         provider.value_or(ecu_.node_id()));
            });
}

// --- Streams ----------------------------------------------------------------------------

void ServiceRuntime::subscribe_stream(ServiceId service, ElementId stream,
                                      StreamHandler handler) {
  if (subscribes_counter_ != nullptr) subscribes_counter_->add();
  auto& sub = subscriptions_[{service, stream}];
  sub.stream_handler = std::move(handler);
  sub.next_sequence = 0;
  when_provider_known(service, [this, service, stream] {
    const auto provider = provider_of(service);
    if (!provider || *provider == ecu_.node_id()) return;
    MessageHeader header;
    header.type = MsgType::kSubscribe;
    header.service = service;
    header.element = stream;
    send_message(*provider, header, {}, net::kPriorityHighest);
  });
}

void ServiceRuntime::stream_send(ServiceId service, ElementId stream,
                                 std::vector<std::uint8_t> data,
                                 net::Priority priority) {
  assert(offered_.count(service) && "streaming on a service not offered");
  const std::uint32_t sequence = stream_sequences_[{service, stream}]++;
  MessageHeader header;
  header.type = MsgType::kStreamData;
  header.service = service;
  header.element = stream;
  header.session = sequence;

  net::BufferRef body = net::BufferRef::adopt_vector(std::move(data));
  auto local = subscriptions_.find({service, stream});
  if (local != subscriptions_.end() && local->second.stream_handler) {
    charge(body->size(), [this, service, stream, sequence, body] {
      auto it = subscriptions_.find({service, stream});
      if (it != subscriptions_.end() && it->second.stream_handler) {
        it->second.stream_handler(sequence, *body->vec());
      }
    });
  }
  auto remotes = remote_subscribers_.find({service, stream});
  if (remotes != remote_subscribers_.end() && !remotes->second.empty()) {
    const obs::TraceContext ctx =
        tracer_ != nullptr
            ? tracer_->start(
                  static_cast<std::uint64_t>(ecu_.simulator().now()))
            : obs::TraceContext{};
    for (net::NodeId dst : remotes->second) {
      send_message_block(dst, header, body, priority, ctx);
    }
  }
}

std::uint64_t ServiceRuntime::stream_losses(ServiceId service,
                                            ElementId stream) const {
  auto it = subscriptions_.find({service, stream});
  return it == subscriptions_.end() ? 0 : it->second.losses;
}

// --- Inbound path ------------------------------------------------------------------------

void ServiceRuntime::on_message(net::NodeId /*src*/, net::Payload wire,
                                obs::TraceContext ctx) {
  MessageHeader header;
  net::Payload body_chain;
  if (!MessageHeader::decode(wire, header, body_chain)) {
    ++rejected_;
    return;
  }
  // The one byte copy on the inbound path: application handlers and the
  // inbound filter speak std::vector, so the body chain linearizes here —
  // after the header was parsed in place and before any dispatch copy.
  std::vector<std::uint8_t> body = body_chain.to_vector();
  if (filter_ && !filter_(header, body)) {
    ++rejected_;
    sim::Trace* trace = ecu_.trace();
    if (trace != nullptr && trace->enabled(sim::TraceCategory::kSecurity)) {
      trace->record(ecu_.simulator().now(), sim::TraceCategory::kSecurity,
                    ecu_.name(), "message_rejected", header.service);
    }
    return;
  }
  const sim::Time delivered_at = ecu_.simulator().now();
  charge(body.size(),
         [this, header, ctx, delivered_at, body = std::move(body)]() mutable {
           if (tracer_ != nullptr && ctx.sampled()) {
             // A request continues into the provider's reply; everything
             // else terminates the chain at this dispatch.
             const bool terminal = header.type != MsgType::kRequest;
             tracer_->on_dispatch(
                 ctx, static_cast<std::uint64_t>(delivered_at),
                 static_cast<std::uint64_t>(ecu_.simulator().now()), terminal);
           }
           dispatch(header, std::move(body), ctx);
         });
}

void ServiceRuntime::dispatch(MessageHeader header,
                              std::vector<std::uint8_t> body,
                              const obs::TraceContext& ctx) {
  const Key key{header.service, header.element};
  switch (header.type) {
    case MsgType::kOffer: {
      auto required = required_versions_.find(header.service);
      if (required != required_versions_.end() &&
          header.session < required->second) {
        ++stale_offers_;
        break;  // too old: do not bind
      }
      auto previous = providers_.find(header.service);
      const bool provider_changed = previous == providers_.end() ||
                                    previous->second != header.sender;
      providers_[header.service] = header.sender;
      provider_versions_[header.service] = header.session;
      // Dynamic re-binding: when a service moves (update redirect across
      // nodes, redundancy failover), existing local subscriptions follow
      // the new provider by re-subscribing.
      if (provider_changed && header.sender != ecu_.node_id()) {
        for (auto& [key, sub] : subscriptions_) {
          if (key.first != header.service) continue;
          MessageHeader resubscribe;
          resubscribe.type = MsgType::kSubscribe;
          resubscribe.service = key.first;
          resubscribe.element = key.second;
          send_message(header.sender, resubscribe, {},
                       net::kPriorityHighest);
          sub.subscribed_remotely = true;
        }
      }
      flush_parked(header.service);
      break;
    }
    case MsgType::kFind: {
      auto it = offered_.find(header.service);
      if (it != offered_.end()) {
        MessageHeader reply;
        reply.type = MsgType::kOffer;
        reply.service = header.service;
        reply.session = it->second;
        send_message(net::kBroadcast, reply, {}, net::kPriorityHighest);
      }
      break;
    }
    case MsgType::kSubscribe: {
      remote_subscribers_[key].insert(header.sender);
      break;
    }
    case MsgType::kUnsubscribe: {
      auto it = remote_subscribers_.find(key);
      if (it != remote_subscribers_.end()) it->second.erase(header.sender);
      break;
    }
    case MsgType::kNotify: {
      auto it = subscriptions_.find(key);
      if (it != subscriptions_.end() && it->second.event_handler) {
        it->second.event_handler(std::move(body), header.sender);
      }
      break;
    }
    case MsgType::kRequest: {
      auto it = methods_.find(key);
      MessageHeader reply;
      reply.service = header.service;
      reply.element = header.element;
      reply.session = header.session;
      // The reply hop continues the caller's chain: same trace id, fresh
      // span, so the response closes end-to-end back at the caller.
      const obs::TraceContext reply_ctx =
          ctx.active() && tracer_ != nullptr ? tracer_->extend(ctx)
                                             : obs::TraceContext{};
      if (it == methods_.end()) {
        reply.type = MsgType::kError;
        send_message(header.sender, reply, {}, net::kPriorityHighest,
                     reply_ctx);
      } else {
        reply.type = MsgType::kResponse;
        auto response = it->second(body);
        send_message(header.sender, reply, response, net::kPriorityLowest,
                     reply_ctx);
      }
      break;
    }
    case MsgType::kResponse:
    case MsgType::kError: {
      auto it = pending_calls_.find(header.session);
      if (it == pending_calls_.end()) break;  // late response after timeout
      ecu_.simulator().cancel(it->second.timeout);
      auto handler = std::move(it->second.handler);
      pending_calls_.erase(it);
      if (handler) {
        handler(header.type == MsgType::kResponse, std::move(body));
      }
      break;
    }
    case MsgType::kStreamData: {
      auto it = subscriptions_.find(key);
      if (it == subscriptions_.end() || !it->second.stream_handler) break;
      auto& sub = it->second;
      if (header.session > sub.next_sequence) {
        sub.losses += header.session - sub.next_sequence;
      }
      sub.next_sequence = header.session + 1;
      sub.stream_handler(header.session, std::move(body));
      break;
    }
  }
}

}  // namespace dynaplat::middleware
