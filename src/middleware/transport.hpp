// Segmentation/reassembly transport over any net::Medium.
//
// Media have maximum frame payloads (CAN: 8 B, Ethernet: 1500 B); middleware
// messages can be larger. The Transport fragments a message into numbered
// segments and reassembles on the far side, preserving the frame priority
// so urgent control messages keep their precedence per fragment.
//
// Fragment wire format (6-byte header per fragment):
//   [u16 message id][u16 fragment index][u16 fragment count] payload...
// A fragment count of 0 marks a control frame; index 0 is an ACK for
// message id (empty payload).
//
// Zero-copy data path (ISSUE 6): a message is a net::Payload slice chain.
// Fragmentation is scatter-gather — each fragment frame carries a 6-byte
// header block from the transport's BufferArena plus a *view* into the
// message chain, so no payload byte is copied on send. Reassembly collects
// fragment-body views and delivers them as an ordered chain (adjacent views
// of one block coalesce back into the original slice). Reliable-mode
// retransmission pins the message chain by refcount instead of duplicating
// it; the CRC32 walks the chain in place. Multi-fragment messages are
// submitted to the medium as one burst (send_batch) so the enqueue /
// arbitration setup cost is paid once. The wire bytes are identical to the
// historical copying path — only the ownership model changed.
//
// Two robustness layers ride on top (fault campaigns, ISSUE 3):
//  * Stale-reassembly TTL: a partial message that stops receiving fragments
//    (loss, sender death) is evicted after `reassembly_ttl` instead of
//    stranding buffer memory forever. Evictions count as reassembly
//    failures. Only the periodic sweep timer armed in the constructor
//    evicts; frame arrival never does.
//  * Reliable mode (opt-in, unicast only): the sender appends a CRC32 over
//    the whole message, the receiver acks CRC-valid reassembly, and the
//    sender retries on ack timeout with capped exponential backoff.
//    Duplicate deliveries created by retries are suppressed via a bounded
//    per-peer window of recently delivered ids; exhausted retries surface
//    through an error callback and a counter. Broadcast traffic (service
//    discovery) stays fire-and-forget — ack implosion is worse than a lost
//    Offer, which discovery already repairs with Find retries.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/buffer.hpp"
#include "net/frame.hpp"
#include "net/medium.hpp"
#include "obs/context.hpp"
#include "obs/coverage.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace dynaplat::middleware {

/// Delivered when all fragments of a message have arrived: the message as an
/// ordered slice chain (zero-copy), plus the causal trace context that rode
/// the wire (inactive for untraced messages).
using MessageHandler = std::function<void(
    net::NodeId src, net::Payload message, const obs::TraceContext& ctx)>;

/// Invoked when a reliable message exhausts its retries.
using DeliveryFailureHandler =
    std::function<void(net::NodeId dst, std::uint16_t message_id)>;

struct TransportConfig {
  /// Evict a partial reassembly untouched for this long (0 = never).
  sim::Duration reassembly_ttl = 500 * sim::kMillisecond;
  /// Reliable unicast: CRC32 + ack + retry.
  bool reliable = false;
  sim::Duration ack_timeout = 20 * sim::kMillisecond;
  int max_retries = 5;
  /// Cap of the exponential retransmit backoff (ack_timeout *
  /// Transport::kBackoffFactor^n).
  sim::Duration max_backoff = 200 * sim::kMillisecond;
  /// Symmetric jitter applied to each armed retransmit delay: the timer
  /// fires after backoff * (1 ± retry_jitter * u), u uniform in [0, 1).
  /// Without it every peer that lost frames in the same partition window
  /// retries in lockstep after heal and the retry burst collides again.
  /// The exponential base (`ack_timeout`, the backoff factor, `max_backoff`)
  /// is unchanged — only the scheduled delay is perturbed. 0 disables
  /// (exact legacy timing). Draws come from one fixed seed and
  /// `jitter_stream`, so runs are bit-reproducible; give each transport a
  /// distinct stream (the runtime wires the ECU's node id) or peers jitter
  /// in lockstep anyway.
  double retry_jitter = 0.1;
  std::uint64_t jitter_stream = 0;
};

/// IEEE 802.3 CRC32 (reflected, 0xEDB88320), the end-to-end integrity check
/// of the reliable transport. Exposed for tests.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);
/// Same CRC over the first `length` bytes of a slice chain, computed in
/// place (no linearization).
std::uint32_t crc32(const net::Payload& payload, std::size_t length);

class Transport {
 public:
  /// Growth of the reliable-mode retransmit backoff per retry.
  static constexpr double kBackoffFactor = 2.0;

  /// `send_frame` submits one frame towards the medium (the Ecu's send path,
  /// so failure gating applies). Incoming frames are fed via on_frame().
  /// `simulator` drives the TTL sweep, the retry timers and the send
  /// timestamps of traced messages.
  Transport(std::function<void(net::Frame)> send_frame,
            std::size_t max_frame_payload, sim::Simulator& simulator,
            TransportConfig config = {});
  ~Transport();

  /// Optional burst submission path: a fragmented message's frames are
  /// handed over in one call (the vector comes back empty, capacity
  /// retained). Falls back to per-frame send_frame when unset.
  void set_batch_sender(std::function<void(std::vector<net::Frame>&)> sender) {
    send_batch_ = std::move(sender);
  }

  /// Fragments and sends a message (slice chain; no payload bytes are
  /// copied). flow_id groups fragments of one logical flow for media-level
  /// arbitration (e.g. the CAN id).
  /// (net::Payload converts implicitly from std::vector<uint8_t> — legacy
  /// vector callers adopt into a single-slice chain, one wrap, no byte copy
  /// for rvalues.)
  /// An active `ctx` is stamped with the send time and prepended to the
  /// message on the wire (the fragment count's high bit marks it); it
  /// survives retransmission and is stripped before delivery.
  void send(net::NodeId dst, net::Priority priority, std::uint32_t flow_id,
            net::Payload message, obs::TraceContext ctx = {});

  /// Feeds a received frame into reassembly.
  void on_frame(const net::Frame& frame);

  void set_handler(MessageHandler handler) { handler_ = std::move(handler); }
  void set_delivery_failure_handler(DeliveryFailureHandler handler) {
    on_delivery_failure_ = std::move(handler);
  }

  /// Chain tracer notified of send/receive hops for sampled contexts (both
  /// directions use this transport's tracer — it is the local ECU's).
  void set_tracer(obs::ChainTracer* tracer) { tracer_ = tracer; }

  /// Coverage map recording transport edge paths (retransmit, dup-drop,
  /// TTL eviction, fragment coalesce). Keys are pre-resolved here so the
  /// hot paths only index.
  void set_coverage(obs::CoverageMap* coverage);

  /// Registers obs counters under `prefix` (e.g. "mw.EcuA.transport.").
  void set_metrics(obs::MetricsRegistry& metrics, const std::string& prefix);

  /// Number of frames one message of `size` bytes costs on this medium.
  std::size_t fragments_for(std::size_t size) const;

  /// The buffer arena this transport allocates fragment headers (and CRC
  /// trailers) from. Callers on the same thread may use it to build
  /// outbound message chains without their own arena.
  net::BufferArena& arena() { return arena_; }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_received() const { return messages_received_; }
  std::uint64_t reassembly_failures() const { return reassembly_failures_; }
  std::uint64_t reassembly_evictions() const { return reassembly_evictions_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t crc_failures() const { return crc_failures_; }
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  std::uint64_t delivery_failures() const { return delivery_failures_; }
  /// In-flight reliable messages awaiting ack.
  std::size_t pending_reliable() const { return pending_reliable_.size(); }
  /// Partial reassemblies currently buffered (0 after TTL sweeps when all
  /// traffic completed or aged out — the "no stranded memory" invariant).
  std::size_t partial_count() const { return partial_.size(); }

  const TransportConfig& config() const { return config_; }

  static constexpr std::size_t kFragmentHeader = 6;
  static constexpr std::size_t kCrcTrailer = 4;
  /// High bit of the fragment-count field: the message body starts with an
  /// encoded obs::TraceContext. Caps fragment counts at 0x7FFF.
  static constexpr std::uint16_t kTracedFlag = 0x8000;

 private:
  struct PartialMessage {
    // Fragment bodies as views into the arriving frames' buffers; for
    // count >= 2 every body is non-empty, so empty() doubles as "absent".
    std::vector<net::Payload> fragments;
    std::size_t received = 0;
    sim::Time last_update = 0;
    sim::Time first_arrival = 0;  // bus-vs-reassembly attribution boundary
    bool unicast = false;  // candidate for CRC check + ack in reliable mode
    bool traced = false;   // body carries a TraceContext prefix
  };

  struct PendingReliable {
    net::NodeId dst = 0;
    net::Priority priority = net::kPriorityLowest;
    std::uint32_t flow_id = 0;
    net::Payload message;  // original chain + CRC slice, pinned by refcount
    bool traced = false;   // chain starts with an encoded TraceContext
    int retries = 0;
    sim::Duration backoff = 0;
    sim::EventId timer;
  };

  /// Duplicate-suppression window: a bitmap over the 16-bit message-id
  /// space answers membership in O(1), a fixed ring of window ids drives
  /// eviction. remember_delivery allocates nothing after first contact
  /// with a peer.
  struct PeerHistory {
    static constexpr std::size_t kBitmapWords = 65536 / 64;
    std::unique_ptr<std::uint64_t[]> seen;  // 8 KiB, lazily allocated
    std::vector<std::uint16_t> ring;        // sized to the window
    std::size_t head = 0;
    std::size_t count = 0;
  };

  void send_fragments(std::uint16_t id, net::NodeId dst,
                      net::Priority priority, std::uint32_t flow_id,
                      const net::Payload& message, bool traced);
  net::BufferRef make_fragment_header(std::uint16_t id, std::uint16_t index,
                                      std::uint16_t count);
  /// Prepends the encoded context in front of the message chain — into the
  /// first block's headroom when available, else via an arena block.
  net::Payload prepend_context(const obs::TraceContext& ctx,
                               net::Payload message);
  void send_ack(net::NodeId dst, std::uint16_t id);
  void on_ack(std::uint16_t id);
  void arm_retry(std::uint16_t id);
  void complete(net::NodeId src, std::uint16_t id, bool unicast, bool traced,
                sim::Time first_arrival, net::Payload message);
  void evict_stale();
  bool remember_delivery(net::NodeId src, std::uint16_t id);

  // Declared first so it outlives every member holding arena-backed
  // payloads (pending_reliable_, partial_, burst_) during destruction.
  net::BufferArena arena_;
  std::function<void(net::Frame)> send_frame_;
  std::function<void(std::vector<net::Frame>&)> send_batch_;
  std::size_t max_frame_payload_;
  sim::Simulator& sim_;
  TransportConfig config_;
  sim::Random retry_rng_;  // seeded jitter stream for retransmit delays
  MessageHandler handler_;
  DeliveryFailureHandler on_delivery_failure_;
  obs::ChainTracer* tracer_ = nullptr;
  obs::CoverageMap* coverage_ = nullptr;
  std::uint32_t cov_retransmit_ = 0;
  std::uint32_t cov_dup_drop_ = 0;
  std::uint32_t cov_ttl_evict_ = 0;
  std::uint32_t cov_coalesce_ = 0;
  std::uint16_t next_message_id_ = 1;
  // Reused burst scratch for multi-fragment sends (capacity persists).
  std::vector<net::Frame> burst_;
  // Keyed by (src node, message id). Stale partials are evicted when the
  // same sender reuses an id (16-bit wrap) or when the TTL expires.
  std::map<std::pair<net::NodeId, std::uint16_t>, PartialMessage> partial_;
  std::map<std::uint16_t, PendingReliable> pending_reliable_;
  std::map<net::NodeId, PeerHistory> delivered_history_;
  // Periodic TTL sweep, the only place partials are evicted (a per-frame
  // sweep would be O(partials) hot-path work).
  sim::EventId sweep_timer_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_received_ = 0;
  std::uint64_t reassembly_failures_ = 0;
  std::uint64_t reassembly_evictions_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t crc_failures_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t delivery_failures_ = 0;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* crc_failures_counter_ = nullptr;
  obs::Counter* duplicates_counter_ = nullptr;
  obs::Counter* delivery_failures_counter_ = nullptr;
};

}  // namespace dynaplat::middleware
