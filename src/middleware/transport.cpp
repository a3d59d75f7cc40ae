#include "middleware/transport.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace dynaplat::middleware {

namespace {

// Seed of every transport's retransmit-jitter stream; transports differ by
// stream (TransportConfig::jitter_stream), not by seed.
constexpr std::uint64_t kJitterSeed = 0x7261'6E64'6A69'7474ULL;  // "randjitt"
// Recently delivered message ids remembered per peer (duplicate
// suppression window).
constexpr std::size_t kDedupWindow = 64;

// Slicing-by-8 CRC32 (IEEE 802.3, reflected 0xEDB88320). Table 0 is the
// classic byte-at-a-time table; tables 1..7 shift each entry one byte
// further, so eight input bytes fold in one step. Produces bit-identical
// results to the byte loop — only the throughput changes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t t = 1; t < 8; ++t) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[t - 1][i];
      tables[t][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

const CrcTables& crc_tables() {
  static const CrcTables tables = make_crc_tables();
  return tables;
}

std::uint32_t crc32_feed(std::uint32_t crc, const std::uint8_t* data,
                         std::size_t size) {
  const CrcTables& t = crc_tables();
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (size >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    data += 8;
    size -= 8;
  }
#endif
  for (std::size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  return crc32_feed(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const net::Payload& payload, std::size_t length) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < payload.slice_count() && length > 0; ++i) {
    const net::BufferSlice& s = payload.slice(i);
    const std::size_t take = std::min<std::size_t>(s.size, length);
    crc = crc32_feed(crc, s.data(), take);
    length -= take;
  }
  return crc ^ 0xFFFFFFFFu;
}

Transport::Transport(std::function<void(net::Frame)> send_frame,
                     std::size_t max_frame_payload, sim::Simulator& simulator,
                     TransportConfig config)
    : send_frame_(std::move(send_frame)),
      max_frame_payload_(max_frame_payload),
      sim_(simulator),
      config_(config),
      retry_rng_(sim::Random::stream(kJitterSeed, config.jitter_stream)) {
  assert(max_frame_payload_ > kFragmentHeader &&
         "medium payload too small for fragment header");
  if (config_.reassembly_ttl > 0) {
    sweep_timer_ = sim_.schedule_every(
        sim_.now() + config_.reassembly_ttl, config_.reassembly_ttl,
        [this] { evict_stale(); });
  }
}

Transport::~Transport() {
  sim_.cancel(sweep_timer_);
  for (auto& [id, pending] : pending_reliable_) sim_.cancel(pending.timer);
}

void Transport::set_coverage(obs::CoverageMap* coverage) {
  coverage_ = coverage;
  if (coverage_ == nullptr) return;
  cov_retransmit_ = coverage_->key("transport.retransmit");
  cov_dup_drop_ = coverage_->key("transport.dup_drop");
  cov_ttl_evict_ = coverage_->key("transport.ttl_evict");
  cov_coalesce_ = coverage_->key("transport.fragment_coalesce");
}

void Transport::set_metrics(obs::MetricsRegistry& metrics,
                            const std::string& prefix) {
  evictions_counter_ = &metrics.counter(prefix + "reassembly_evictions");
  retries_counter_ = &metrics.counter(prefix + "retries");
  crc_failures_counter_ = &metrics.counter(prefix + "crc_failures");
  duplicates_counter_ = &metrics.counter(prefix + "duplicates_suppressed");
  delivery_failures_counter_ = &metrics.counter(prefix + "delivery_failures");
}

std::size_t Transport::fragments_for(std::size_t size) const {
  const std::size_t chunk = max_frame_payload_ - kFragmentHeader;
  // Single-fragment messages skip the division (runtime divisor, and this
  // sits on the per-message fast path).
  return size <= chunk ? 1 : (size + chunk - 1) / chunk;
}

net::BufferRef Transport::make_fragment_header(std::uint16_t id,
                                               std::uint16_t index,
                                               std::uint16_t count) {
  net::BufferRef header = arena_.alloc(kFragmentHeader);
  std::uint8_t* p = header->data();
  p[0] = static_cast<std::uint8_t>(id);
  p[1] = static_cast<std::uint8_t>(id >> 8);
  p[2] = static_cast<std::uint8_t>(index);
  p[3] = static_cast<std::uint8_t>(index >> 8);
  p[4] = static_cast<std::uint8_t>(count);
  p[5] = static_cast<std::uint8_t>(count >> 8);
  return header;
}

void Transport::send_fragments(std::uint16_t id, net::NodeId dst,
                               net::Priority priority, std::uint32_t flow_id,
                               const net::Payload& message, bool traced) {
  const std::size_t chunk = max_frame_payload_ - kFragmentHeader;
  const std::size_t count = fragments_for(message.size());
  const std::uint16_t flag = traced ? kTracedFlag : 0;
  if (count == 1) {
    net::Frame frame;
    frame.dst = dst;
    frame.priority = priority;
    frame.flow_id = flow_id;
    if (message.slice_count() > 0) {
      const net::BufferSlice& first = message.slice(0);
      if (first.offset >= kFragmentHeader && first.buf->unique()) {
        // Fastest path: the chain's first block has headroom (PayloadWriter
        // reserves it) and nobody else references it, so the header is
        // written in place just before the payload bytes (skb_push). The
        // frame rides the message's own block as a single slice: no header
        // block, no extra slice, and every single-slice fast path downstream
        // fires. Retransmissions rewrite the same bytes — idempotent.
        const std::uint16_t wire_count = 1 | flag;
        std::uint8_t* p = first.buf->data() + first.offset - kFragmentHeader;
        p[0] = static_cast<std::uint8_t>(id);
        p[1] = static_cast<std::uint8_t>(id >> 8);
        p[2] = 0;
        p[3] = 0;
        p[4] = static_cast<std::uint8_t>(wire_count);
        p[5] = static_cast<std::uint8_t>(wire_count >> 8);
        net::BufferSlice merged;
        merged.buf = first.buf;
        merged.offset = first.offset - kFragmentHeader;
        merged.size = first.size + kFragmentHeader;
        frame.payload.append(std::move(merged));
        for (std::size_t i = 1; i < message.slice_count(); ++i) {
          frame.payload.append(message.slice(i));
        }
        send_frame_(std::move(frame));
        return;
      }
    }
    // Fast path: one frame = header block + the whole message chain.
    frame.payload.append(make_fragment_header(id, 0, 1 | flag), 0,
                         kFragmentHeader);
    frame.payload.append(message);
    send_frame_(std::move(frame));
    return;
  }
  burst_.clear();
  burst_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t begin = i * chunk;
    const std::size_t end = std::min(begin + chunk, message.size());
    net::Frame frame;
    frame.dst = dst;
    frame.priority = priority;
    frame.flow_id = flow_id;
    frame.payload.append(
        make_fragment_header(id, static_cast<std::uint16_t>(i),
                             static_cast<std::uint16_t>(count) | flag),
        0, kFragmentHeader);
    frame.payload.append(message.subspan(begin, end - begin));
    burst_.push_back(std::move(frame));
  }
  if (send_batch_) {
    send_batch_(burst_);
  } else {
    for (net::Frame& frame : burst_) send_frame_(std::move(frame));
    burst_.clear();
  }
}

net::Payload Transport::prepend_context(const obs::TraceContext& ctx,
                                        net::Payload message) {
  std::uint8_t wire[obs::TraceContext::kWireSize];
  ctx.encode(wire);
  const std::size_t n = obs::TraceContext::kWireSize;
  if (message.slice_count() > 0) {
    const net::BufferSlice& first = message.slice(0);
    if (first.offset >= n && first.buf->unique()) {
      // The first block has headroom (PayloadWriter reserves enough for the
      // context *and* the fragment header below it): write in place and
      // extend the slice downward, keeping the chain single-block.
      std::memcpy(first.buf->data() + first.offset - n, wire, n);
      net::Payload out;
      net::BufferSlice merged;
      merged.buf = first.buf;
      merged.offset = first.offset - static_cast<std::uint32_t>(n);
      merged.size = first.size + static_cast<std::uint32_t>(n);
      out.append(std::move(merged));
      for (std::size_t i = 1; i < message.slice_count(); ++i) {
        out.append(message.slice(i));
      }
      return out;
    }
  }
  net::BufferRef block = arena_.alloc(n);
  std::memcpy(block->data(), wire, n);
  net::Payload out;
  out.append(std::move(block), 0, n);
  out.append(message);
  return out;
}

void Transport::send(net::NodeId dst, net::Priority priority,
                     std::uint32_t flow_id, net::Payload message,
                     obs::TraceContext ctx) {
  const std::uint16_t id = next_message_id_++;
  if (next_message_id_ == 0) next_message_id_ = 1;  // 0 never used
  ++messages_sent_;
  const bool traced = ctx.active();
  if (traced) {
    ctx.sent_ns = static_cast<std::uint64_t>(sim_.now());
    message = prepend_context(ctx, std::move(message));
    if (tracer_ != nullptr && ctx.sampled()) tracer_->on_send(ctx);
  }
  if (!config_.reliable || dst == net::kBroadcast) {
    send_fragments(id, dst, priority, flow_id, message, traced);
    return;
  }
  // Reliable: append the end-to-end CRC, pin the chain for retransmission
  // (refcount, no duplicate), arm the ack timer.
  PendingReliable pending;
  pending.dst = dst;
  pending.priority = priority;
  pending.flow_id = flow_id;
  const std::uint32_t crc = crc32(message, message.size());
  net::BufferRef trailer = arena_.alloc(kCrcTrailer);
  std::uint8_t* p = trailer->data();
  p[0] = static_cast<std::uint8_t>(crc);
  p[1] = static_cast<std::uint8_t>(crc >> 8);
  p[2] = static_cast<std::uint8_t>(crc >> 16);
  p[3] = static_cast<std::uint8_t>(crc >> 24);
  pending.message = std::move(message);
  pending.message.append(trailer, 0, kCrcTrailer);
  pending.traced = traced;
  pending.backoff = config_.ack_timeout;
  auto [it, inserted] =
      pending_reliable_.insert_or_assign(id, std::move(pending));
  (void)inserted;
  send_fragments(id, dst, priority, flow_id, it->second.message, traced);
  arm_retry(id);
}

void Transport::arm_retry(std::uint16_t id) {
  auto it = pending_reliable_.find(id);
  if (it == pending_reliable_.end()) return;
  PendingReliable& pending = it->second;
  // Jitter desynchronizes peers whose losses (and therefore backoff
  // schedules) are correlated — a healed partition otherwise produces a
  // lockstep retry storm that collides all over again. pending.backoff
  // itself stays the pure exponential base so the cap logic is unchanged.
  sim::Duration delay = pending.backoff;
  if (config_.retry_jitter > 0.0) {
    const double factor =
        1.0 + config_.retry_jitter * (2.0 * retry_rng_.uniform01() - 1.0);
    delay = std::max<sim::Duration>(
        static_cast<sim::Duration>(static_cast<double>(delay) * factor), 1);
  }
  pending.timer = sim_.schedule_in(delay, [this, id] {
    auto it = pending_reliable_.find(id);
    if (it == pending_reliable_.end()) return;  // acked meanwhile
    PendingReliable& pending = it->second;
    if (pending.retries >= config_.max_retries) {
      ++delivery_failures_;
      if (delivery_failures_counter_ != nullptr) {
        delivery_failures_counter_->add();
      }
      const net::NodeId dst = pending.dst;
      pending_reliable_.erase(it);
      if (on_delivery_failure_) on_delivery_failure_(dst, id);
      return;
    }
    ++pending.retries;
    ++retries_;
    if (retries_counter_ != nullptr) retries_counter_->add();
    if (coverage_ != nullptr) coverage_->hit(cov_retransmit_);
    pending.backoff = std::min<sim::Duration>(
        static_cast<sim::Duration>(static_cast<double>(pending.backoff) *
                                   kBackoffFactor),
        config_.max_backoff);
    send_fragments(id, pending.dst, pending.priority, pending.flow_id,
                   pending.message, pending.traced);
    arm_retry(id);
  });
}

void Transport::send_ack(net::NodeId dst, std::uint16_t id) {
  net::Frame frame;
  frame.dst = dst;
  frame.priority = net::kPriorityHighest;
  frame.flow_id = 0;
  // {id_lo, id_hi, control code 0 = ACK, count 0 = control frame}
  net::BufferRef header = arena_.alloc(kFragmentHeader);
  std::uint8_t* p = header->data();
  p[0] = static_cast<std::uint8_t>(id);
  p[1] = static_cast<std::uint8_t>(id >> 8);
  p[2] = p[3] = p[4] = p[5] = 0;
  frame.payload.append(header, 0, kFragmentHeader);
  ++acks_sent_;
  send_frame_(std::move(frame));
}

void Transport::on_ack(std::uint16_t id) {
  auto it = pending_reliable_.find(id);
  if (it == pending_reliable_.end()) return;  // duplicate / late ack
  sim_.cancel(it->second.timer);
  pending_reliable_.erase(it);
}

void Transport::evict_stale() {
  const sim::Time now = sim_.now();
  for (auto it = partial_.begin(); it != partial_.end();) {
    if (now - it->second.last_update > config_.reassembly_ttl) {
      ++reassembly_failures_;
      ++reassembly_evictions_;
      if (evictions_counter_ != nullptr) evictions_counter_->add();
      if (coverage_ != nullptr) coverage_->hit(cov_ttl_evict_);
      it = partial_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Transport::remember_delivery(net::NodeId src, std::uint16_t id) {
  PeerHistory& history = delivered_history_[src];
  if (!history.seen) {
    history.seen = std::make_unique<std::uint64_t[]>(PeerHistory::kBitmapWords);
    std::fill_n(history.seen.get(), PeerHistory::kBitmapWords, 0);
    history.ring.resize(kDedupWindow, 0);
  }
  std::uint64_t& word = history.seen[id >> 6];
  const std::uint64_t bit = 1ull << (id & 63);
  if ((word & bit) != 0) return false;  // duplicate
  if (history.count == history.ring.size()) {
    // Window full: forget the oldest id. Ring entries are distinct (ids are
    // only inserted when their bit is clear), so clearing is safe.
    const std::uint16_t old = history.ring[history.head];
    history.seen[old >> 6] &= ~(1ull << (old & 63));
  } else {
    ++history.count;
  }
  word |= bit;
  history.ring[history.head] = id;
  if (++history.head == history.ring.size()) history.head = 0;
  return true;
}

void Transport::complete(net::NodeId src, std::uint16_t id, bool unicast,
                         bool traced, sim::Time first_arrival,
                         net::Payload message) {
  if (config_.reliable && unicast) {
    if (message.size() < kCrcTrailer) {
      ++reassembly_failures_;
      return;
    }
    const std::size_t body = message.size() - kCrcTrailer;
    const std::uint32_t expected =
        static_cast<std::uint32_t>(message.byte(body)) |
        static_cast<std::uint32_t>(message.byte(body + 1)) << 8 |
        static_cast<std::uint32_t>(message.byte(body + 2)) << 16 |
        static_cast<std::uint32_t>(message.byte(body + 3)) << 24;
    if (crc32(message, body) != expected) {
      // Corrupt: no ack, the sender's retry delivers a clean copy (the
      // pinned chain is never the mutated one — corruption copies on
      // write).
      ++crc_failures_;
      if (crc_failures_counter_ != nullptr) crc_failures_counter_->add();
      ++reassembly_failures_;
      return;
    }
    message.truncate(body);
    send_ack(src, id);
    if (!remember_delivery(src, id)) {
      // Duplicate from a retry: dropped *before* the context is accounted,
      // so a traced hop is counted exactly once.
      ++duplicates_suppressed_;
      if (duplicates_counter_ != nullptr) duplicates_counter_->add();
      if (coverage_ != nullptr) coverage_->hit(cov_dup_drop_);
      return;
    }
  }
  obs::TraceContext ctx;
  if (traced) {
    constexpr std::size_t n = obs::TraceContext::kWireSize;
    if (message.size() < n) {
      ++reassembly_failures_;
      return;
    }
    std::size_t prefix_len = 0;
    const std::uint8_t* prefix = message.contiguous_prefix(&prefix_len);
    std::uint8_t wire[n];
    if (prefix_len < n) {
      for (std::size_t i = 0; i < n; ++i) wire[i] = message.byte(i);
      prefix = wire;
    }
    ctx = obs::TraceContext::decode(prefix);
    message = message.subspan(n);
    if (tracer_ != nullptr && ctx.sampled()) {
      tracer_->on_receive(ctx, static_cast<std::uint64_t>(first_arrival),
                          static_cast<std::uint64_t>(sim_.now()));
    }
  }
  ++messages_received_;
  if (handler_) handler_(src, std::move(message), ctx);
}

void Transport::on_frame(const net::Frame& frame) {
  if (frame.payload.size() < kFragmentHeader) {
    ++reassembly_failures_;
    return;
  }
  // A fragment's first slice is its header block, so the contiguous prefix
  // covers all six bytes except after corruption linearized the chain — in
  // which case it covers the whole payload.
  std::size_t prefix_len = 0;
  const std::uint8_t* prefix = frame.payload.contiguous_prefix(&prefix_len);
  std::uint8_t header[kFragmentHeader];
  if (prefix_len < kFragmentHeader) {
    for (std::size_t i = 0; i < kFragmentHeader; ++i) {
      header[i] = frame.payload.byte(i);
    }
    prefix = header;
  }
  const std::uint16_t id =
      static_cast<std::uint16_t>(prefix[0] | (prefix[1] << 8));
  const std::uint16_t index =
      static_cast<std::uint16_t>(prefix[2] | (prefix[3] << 8));
  const std::uint16_t raw_count =
      static_cast<std::uint16_t>(prefix[4] | (prefix[5] << 8));
  if (raw_count == 0) {
    // Control frame. Code 0 = ACK; unknown codes are ignored so the wire
    // format can grow without breaking old receivers.
    if (index == 0) on_ack(id);
    return;
  }
  const bool traced = (raw_count & kTracedFlag) != 0;
  const std::uint16_t count = raw_count & static_cast<std::uint16_t>(~kTracedFlag);
  if (count == 0 || index >= count) {
    // A traced flag with a zero fragment count is malformed (corruption).
    ++reassembly_failures_;
    return;
  }
  const bool unicast = frame.dst != net::kBroadcast;
  const sim::Time now = sim_.now();

  // Fragment body: a view into the frame's buffers, no copy. Single-slice
  // frames (the prepended-header fast path) skip the subspan walk.
  net::Payload body;
  if (frame.payload.slice_count() == 1) {
    const net::BufferSlice& s = frame.payload.slice(0);
    body.append(s.buf, s.offset + kFragmentHeader, s.size - kFragmentHeader);
  } else {
    body = frame.payload.subspan(kFragmentHeader);
  }
  if (count == 1) {
    complete(frame.src, id, unicast, traced, now, std::move(body));
    return;
  }

  const auto key = std::make_pair(frame.src, id);
  auto it = partial_.find(key);
  if (it == partial_.end()) {
    it = partial_.emplace(key, PartialMessage{}).first;
    it->second.fragments.resize(count);
    it->second.first_arrival = now;
  } else if (it->second.fragments.size() != count) {
    // Sender reused the id for a different message: restart reassembly.
    it->second = PartialMessage{};
    it->second.fragments.resize(count);
    it->second.first_arrival = now;
    ++reassembly_failures_;
  }
  PartialMessage& partial = it->second;
  partial.last_update = now;
  partial.unicast = unicast;
  partial.traced = traced;
  if (partial.fragments[index].empty()) ++partial.received;
  partial.fragments[index] = std::move(body);

  if (partial.received == partial.fragments.size()) {
    // Deliver the ordered chain; adjacent views of one block (fragments of
    // a single transmission) coalesce back into the original slices.
    net::Payload message;
    for (net::Payload& fragment : partial.fragments) {
      message.append(fragment);
    }
    const bool was_unicast = partial.unicast;
    const bool was_traced = partial.traced;
    const sim::Time first_arrival = partial.first_arrival;
    partial_.erase(it);
    if (coverage_ != nullptr) coverage_->hit(cov_coalesce_);
    complete(frame.src, id, was_unicast, was_traced, first_arrival,
             std::move(message));
  }
}

}  // namespace dynaplat::middleware
