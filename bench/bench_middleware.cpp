// E18: zero-copy middleware data path (msgs/sec A/B vs the copying baseline).
//
// The transport now moves message bytes as refcounted slice chains: a
// fragment is a 6-byte header block from the transport's arena plus a *view*
// into the message buffer, reassembly delivers the ordered view chain, and
// reliable retransmission pins the chain by refcount instead of duplicating
// it (net/buffer.hpp, middleware/transport.hpp). This bench proves the win
// against LegacyTransport — the historical copying implementation reproduced
// below: a fresh vector materialized per message, every fragment rebuilding
// header+chunk into its own vector, reassembly copying bodies out of frames
// and concatenating, reliable mode keeping a full duplicate. The wire bytes
// are identical by construction; a fingerprint cross-check (FNV-1a over every
// frame's payload/addressing plus every delivered message) enforces that
// before any timing is trusted. One deviation today's Frame type forces on
// the baseline: each legacy fragment vector is adopted into a refcounted
// block (one extra small allocation per frame the historical code did not
// pay) — it inflates the baseline by one alloc out of its four per message,
// a small flattery next to the copies being measured.
//
// Sections:
//   * parity     — legacy vs zero-copy fingerprints per workload (hard gate)
//   * throughput — best-of-reps msgs/sec per workload, speedup
//   * allocation — global operator-new counter + arena chunk counter across
//                  10k steady-state single-fragment publishes; both must be
//                  exactly zero (the "no heap traffic" acceptance criterion)
//   * sweep      — the workload under sim::ScenarioSweep at 0 vs 4 worker
//                  threads; per-scenario fingerprints must merge
//                  bit-identically (each scenario owns its arenas — the
//                  non-atomic refcount design the TSan CI job leans on)
//   * full node  — the transport audit above covers one layer. This one
//                  counts a whole vehicle built by platform::Vehicle: apps,
//                  middleware charged on each ECU's os::Processor,
//                  transport, an Ethernet backbone and a CAN bus. Heap
//                  allocations per delivered message and per kernel event
//                  over a fixed steady window; more than the recorded
//                  ceiling per message fails the bench.
//
// Writes BENCH_middleware.json; exits nonzero on parity / allocation /
// determinism failure (and on a grossly regressed speedup) so CI gates on it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "bench/alloc_counter.hpp"
#include "bench/common.hpp"
#include "fault/campaign.hpp"
#include "middleware/payload.hpp"
#include "middleware/transport.hpp"
#include "model/parser.hpp"
#include "net/buffer.hpp"
#include "net/frame.hpp"
#include "platform/vehicle.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

using namespace dynaplat;

namespace {

constexpr net::NodeId kPeer = 7;
constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t fnv_bytes(std::uint64_t h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xFFu)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

/// Shared body bytes; every message is a prefix of this with its sequence
/// number stamped over the first four bytes, so content varies per message
/// and both paths produce identical bytes.
const std::vector<std::uint8_t>& pattern() {
  static const std::vector<std::uint8_t> bytes = [] {
    std::vector<std::uint8_t> v(8192);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<std::uint8_t>(i * 131 + 17);
    }
    return v;
  }();
  return bytes;
}

void stamp_seq(std::uint8_t* p, std::uint32_t seq) {
  p[0] = static_cast<std::uint8_t>(seq);
  p[1] = static_cast<std::uint8_t>(seq >> 8);
  p[2] = static_cast<std::uint8_t>(seq >> 16);
  p[3] = static_cast<std::uint8_t>(seq >> 24);
}

/// Everything both paths must agree on: the frame-by-frame wire fingerprint
/// (payload bytes + addressing, acks included) and the delivered-message
/// fingerprint.
struct Stats {
  std::uint64_t wire_fp = kFnvBasis;
  std::uint64_t delivered_fp = kFnvBasis;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t delivered = 0;

  void account(const net::Frame& f) {
    ++wire_frames;
    wire_bytes += f.payload.size();
    wire_fp = fnv_u64(wire_fp, f.dst);
    wire_fp = fnv_u64(wire_fp, f.priority);
    wire_fp = fnv_u64(wire_fp, f.flow_id);
    wire_fp = net::payload_fnv1a(f.payload, wire_fp);
  }
};

// --- The copying baseline ----------------------------------------------------

/// The pre-zero-copy transport data path, byte-for-byte the same wire format
/// (fragment header, CRC trailer, ACK control frames, dedup window): every
/// stage copies, exactly as the historical implementation did.
class LegacyTransport {
 public:
  using Handler = std::function<void(net::NodeId, std::vector<std::uint8_t>)>;

  LegacyTransport(std::function<void(net::Frame)> send_frame,
                  std::size_t max_frame_payload, bool reliable)
      : send_frame_(std::move(send_frame)),
        max_frame_payload_(max_frame_payload),
        reliable_(reliable) {}

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  void send(net::NodeId dst, net::Priority priority, std::uint32_t flow_id,
            std::vector<std::uint8_t> message) {
    const std::uint16_t id = next_message_id_++;
    if (next_message_id_ == 0) next_message_id_ = 1;
    if (reliable_ && dst != net::kBroadcast) {
      const std::uint32_t crc =
          middleware::crc32(message.data(), message.size());
      message.push_back(static_cast<std::uint8_t>(crc));
      message.push_back(static_cast<std::uint8_t>(crc >> 8));
      message.push_back(static_cast<std::uint8_t>(crc >> 16));
      message.push_back(static_cast<std::uint8_t>(crc >> 24));
      pending_[id] = message;  // full duplicate pinned for retransmission
    }
    send_fragments(id, dst, priority, flow_id, message);
  }

  void on_frame(const net::Frame& frame) {
    if (frame.payload.size() < 6) return;
    std::size_t prefix_len = 0;
    // Legacy frames carry single-slice payloads, so the contiguous prefix
    // spans the whole frame (receive-side parsing was free of copies; only
    // the body extraction below copied).
    const std::uint8_t* p = frame.payload.contiguous_prefix(&prefix_len);
    const std::uint16_t id = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    const std::uint16_t index = static_cast<std::uint16_t>(p[2] | (p[3] << 8));
    const std::uint16_t count = static_cast<std::uint16_t>(p[4] | (p[5] << 8));
    if (count == 0) {
      if (index == 0) pending_.erase(id);  // ACK
      return;
    }
    if (index >= count) return;
    const bool unicast = frame.dst != net::kBroadcast;
    std::vector<std::uint8_t> body(p + 6, p + frame.payload.size());
    if (count == 1) {
      complete(frame.src, id, unicast, std::move(body));
      return;
    }
    Partial& partial = partial_[{frame.src, id}];
    if (partial.fragments.size() != count) {
      partial.fragments.assign(count, {});
      partial.received = 0;
    }
    if (partial.fragments[index].empty()) ++partial.received;
    partial.fragments[index] = std::move(body);
    if (partial.received == partial.fragments.size()) {
      std::vector<std::uint8_t> message;  // reassembly concatenation copy
      for (const std::vector<std::uint8_t>& f : partial.fragments) {
        message.insert(message.end(), f.begin(), f.end());
      }
      partial_.erase({frame.src, id});
      complete(frame.src, id, unicast, std::move(message));
    }
  }

 private:
  struct Partial {
    std::vector<std::vector<std::uint8_t>> fragments;
    std::size_t received = 0;
  };
  struct Window {
    std::set<std::uint16_t> ids;
    std::deque<std::uint16_t> order;
  };

  void send_fragments(std::uint16_t id, net::NodeId dst,
                      net::Priority priority, std::uint32_t flow_id,
                      const std::vector<std::uint8_t>& message) {
    const std::size_t chunk = max_frame_payload_ - 6;
    const std::size_t count =
        message.empty() ? 1 : (message.size() + chunk - 1) / chunk;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t begin = i * chunk;
      const std::size_t end = std::min(begin + chunk, message.size());
      std::vector<std::uint8_t> payload;  // per-fragment rebuild copy
      payload.reserve(6 + (end - begin));
      payload.push_back(static_cast<std::uint8_t>(id));
      payload.push_back(static_cast<std::uint8_t>(id >> 8));
      payload.push_back(static_cast<std::uint8_t>(i));
      payload.push_back(static_cast<std::uint8_t>(i >> 8));
      payload.push_back(static_cast<std::uint8_t>(count));
      payload.push_back(static_cast<std::uint8_t>(count >> 8));
      payload.insert(payload.end(), message.begin() + static_cast<long>(begin),
                     message.begin() + static_cast<long>(end));
      net::Frame frame;
      frame.dst = dst;
      frame.priority = priority;
      frame.flow_id = flow_id;
      frame.payload = std::move(payload);
      send_frame_(std::move(frame));
    }
  }

  void send_ack(net::NodeId dst, std::uint16_t id) {
    net::Frame frame;
    frame.dst = dst;
    frame.priority = net::kPriorityHighest;
    frame.flow_id = 0;
    frame.payload = std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(id), static_cast<std::uint8_t>(id >> 8),
        0, 0, 0, 0};
    send_frame_(std::move(frame));
  }

  void complete(net::NodeId src, std::uint16_t id, bool unicast,
                std::vector<std::uint8_t> message) {
    if (reliable_ && unicast) {
      if (message.size() < 4) return;
      const std::size_t body = message.size() - 4;
      const std::uint32_t expected =
          static_cast<std::uint32_t>(message[body]) |
          static_cast<std::uint32_t>(message[body + 1]) << 8 |
          static_cast<std::uint32_t>(message[body + 2]) << 16 |
          static_cast<std::uint32_t>(message[body + 3]) << 24;
      if (middleware::crc32(message.data(), body) != expected) return;
      message.resize(body);
      send_ack(src, id);
      if (!remember_delivery(src, id)) return;
    }
    if (handler_) handler_(src, std::move(message));
  }

  bool remember_delivery(net::NodeId src, std::uint16_t id) {
    // The historical dedup window, verbatim: a std::set plus an eviction
    // deque per peer (a tree-node allocation per delivered reliable
    // message).
    Window& w = history_[src];
    if (w.ids.count(id) > 0) return false;
    w.ids.insert(id);
    w.order.push_back(id);
    while (w.order.size() > 64) {
      w.ids.erase(w.order.front());
      w.order.pop_front();
    }
    return true;
  }

  std::function<void(net::Frame)> send_frame_;
  std::size_t max_frame_payload_;
  bool reliable_;
  Handler handler_;
  std::uint16_t next_message_id_ = 1;
  std::map<std::uint16_t, std::vector<std::uint8_t>> pending_;
  std::map<std::pair<net::NodeId, std::uint16_t>, Partial> partial_;
  std::map<net::NodeId, Window> history_;
};

// --- Loopback harnesses ------------------------------------------------------
// tx's frames feed rx.on_frame directly; rx's frames (acks) feed tx. The
// loop is synchronous and lossless, so reliable mode acks before the retry
// timer is ever armed. Both harnesses expose the same send(seq, size, dst)
// surface so the workload driver is path-agnostic.

middleware::TransportConfig transport_config(bool reliable) {
  middleware::TransportConfig config;
  config.reliable = reliable;
  return config;
}

// Events up to this size are producer-serialized through PayloadWriter into
// arena blocks (one block thanks to the size hint, with prepend headroom);
// larger bodies are application-owned buffers sent as views.
constexpr std::size_t kWriterBodyMax = 2048;

struct ZeroCopyHarness {
  Stats stats;
  bool fingerprint = false;
  sim::Simulator sim;
  middleware::Transport tx;
  middleware::Transport rx;
  middleware::PayloadWriter writer;
  net::BufferRef body;

  ZeroCopyHarness(std::size_t max_payload, bool reliable)
      : tx([this](net::Frame f) { feed(rx, std::move(f)); }, max_payload, sim,
           transport_config(reliable)),
        rx([this](net::Frame f) { feed(tx, std::move(f)); }, max_payload, sim,
           transport_config(reliable)),
        writer(tx.arena()) {
    tx.set_batch_sender([this](std::vector<net::Frame>& frames) {
      for (net::Frame& f : frames) feed(rx, std::move(f));
      frames.clear();
    });
    rx.set_handler([this](net::NodeId src, net::Payload message,
                          const obs::TraceContext&) {
      ++stats.delivered;
      if (fingerprint) {
        stats.delivered_fp = fnv_u64(stats.delivered_fp, src);
        stats.delivered_fp = net::payload_fnv1a(message, stats.delivered_fp);
      }
    });
    body = net::BufferRef::adopt_vector(pattern());
  }

  void feed(middleware::Transport& peer, net::Frame f) {
    if (fingerprint) stats.account(f);
    peer.on_frame(f);
  }

  void send(std::uint32_t seq, std::size_t size, net::NodeId dst) {
    if (size <= kWriterBodyMax) {
      // Producer-serialized small event: fields written once, into arena
      // blocks; the chain then travels untouched to delivery. The writer is
      // persistent (a per-connection serializer), reset by take_chain().
      writer.hint(size);
      writer.u32(seq);
      writer.raw(pattern().data() + 4, size - 4);
      tx.send(dst, 3, 42, writer.take_chain());
    } else {
      // Bulk body: the application owns one buffer and sends views of it.
      stamp_seq(body->data(), seq);
      net::Payload message;
      message.append(body, 0, size);
      tx.send(dst, 3, 42, std::move(message));
    }
  }

  std::uint64_t arena_chunks() {
    return tx.arena().chunks_allocated() + rx.arena().chunks_allocated();
  }
};

struct LegacyHarness {
  Stats stats;
  bool fingerprint = false;
  LegacyTransport tx;
  LegacyTransport rx;

  LegacyHarness(std::size_t max_payload, bool reliable)
      : tx([this](net::Frame f) { feed_rx(std::move(f)); }, max_payload,
           reliable),
        rx([this](net::Frame f) { feed_tx(std::move(f)); }, max_payload,
           reliable) {
    rx.set_handler([this](net::NodeId src, std::vector<std::uint8_t> message) {
      ++stats.delivered;
      if (fingerprint) {
        stats.delivered_fp = fnv_u64(stats.delivered_fp, src);
        stats.delivered_fp =
            fnv_bytes(stats.delivered_fp, message.data(), message.size());
      }
    });
  }

  void feed_rx(net::Frame f) {
    if (fingerprint) stats.account(f);
    rx.on_frame(f);
  }
  void feed_tx(net::Frame f) {
    if (fingerprint) stats.account(f);
    tx.on_frame(f);
  }

  void send(std::uint32_t seq, std::size_t size, net::NodeId dst) {
    // The historical writer materialized every message as a fresh vector.
    std::vector<std::uint8_t> message(
        pattern().begin(), pattern().begin() + static_cast<long>(size));
    stamp_seq(message.data(), seq);
    tx.send(dst, 3, 42, std::move(message));
  }
};

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t max_payload;
  bool reliable;
  std::size_t body;  // 0 = mixed rotation
  bool broadcast;
  int msgs;  // per timing rep
};

constexpr Workload kWorkloads[] = {
    {"small_event_unicast", 256, false, 32, false, 20000},
    {"small_event_broadcast", 256, false, 32, true, 20000},
    {"small_event_reliable", 256, true, 32, false, 10000},
    {"event_1k_unicast", 1500, false, 1024, false, 10000},
    {"frag_8k_unicast", 1500, false, 8192, false, 2000},
    {"frag_8k_reliable", 1500, true, 8192, false, 2000},
    {"mixed", 256, true, 0, false, 8000},
};

void shape(const Workload& w, int i, std::size_t& size, net::NodeId& dst) {
  if (w.body != 0) {
    size = w.body;
    dst = w.broadcast ? net::kBroadcast : kPeer;
    return;
  }
  switch (i & 3) {
    case 0: size = 32; dst = kPeer; break;             // reliable event
    case 1: size = 32; dst = net::kBroadcast; break;   // discovery offer
    case 2: size = 2048; dst = kPeer; break;           // reliable bulk
    default: size = 512; dst = net::kBroadcast; break; // broadcast blob
  }
}

template <typename Harness>
Stats parity_run(const Workload& w, int msgs) {
  Harness h(w.max_payload, w.reliable);
  h.fingerprint = true;
  std::uint32_t seq = 1;
  for (int i = 0; i < msgs; ++i) {
    std::size_t size = 0;
    net::NodeId dst = 0;
    shape(w, i, size, dst);
    h.send(seq++, size, dst);
  }
  return h.stats;
}

/// Best-of-reps wall time for `w.msgs` messages on a warmed harness; also
/// verifies every message actually arrived (clears `ok` otherwise).
template <typename Harness>
double timed_run(const Workload& w, int reps, bool& ok) {
  Harness h(w.max_payload, w.reliable);
  h.fingerprint = false;
  std::uint32_t seq = 1;
  const int warm = std::max(256, w.msgs / 8);
  std::uint64_t sent = 0;
  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      std::size_t size = 0;
      net::NodeId dst = 0;
      shape(w, i, size, dst);
      h.send(seq++, size, dst);
    }
    sent += static_cast<std::uint64_t>(n);
  };
  burst(warm);
  const double best_ms =
      bench::min_elapsed_ms(reps, [&] { burst(w.msgs); });
  if (h.stats.delivered != sent) {
    std::fprintf(stderr, "%s: delivered %llu of %llu messages\n", w.name,
                 static_cast<unsigned long long>(h.stats.delivered),
                 static_cast<unsigned long long>(sent));
    ok = false;
  }
  return best_ms;
}

// --- Allocation check --------------------------------------------------------

struct AllocCheck {
  std::uint64_t msgs = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t arena_chunks = 0;
  bool ok = false;
};

AllocCheck run_alloc_check() {
  ZeroCopyHarness h(256, false);
  std::uint32_t seq = 1;
  for (int i = 0; i < 4096; ++i) h.send(seq++, 32, kPeer);  // warm free lists
  AllocCheck check;
  check.msgs = 10000;
  const std::uint64_t chunks_before = h.arena_chunks();
  const std::uint64_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < check.msgs; ++i) h.send(seq++, 32, kPeer);
  check.heap_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - heap_before;
  check.arena_chunks = h.arena_chunks() - chunks_before;
  check.ok = check.heap_allocs == 0 && check.arena_chunks == 0;
  return check;
}

// --- Full-node allocation audit -----------------------------------------------

// One publisher and one subscriber per medium. A 64-byte event crosses the
// backbone in one frame; a 16-byte event becomes 19 two-byte fragments on
// classic CAN, a burst for the bus's arbitration queue.
const char* kNodeModel = R"(
network Backbone kind=ethernet bitrate=100M
network Body kind=can bitrate=500K
ecu EthPub mips=1000 memory=64M asil=D network=Backbone
ecu EthSub mips=1000 memory=64M asil=D network=Backbone
ecu CanPub mips=200 memory=16M asil=D network=Body
ecu CanSub mips=200 memory=16M asil=D network=Body
interface EthSignal paradigm=event payload=64 period=5ms
interface CanSignal paradigm=event payload=16 period=20ms
app EthSource class=nondeterministic asil=QM memory=2M
  task tick period=5ms wcet=50K priority=5
  provides EthSignal
app EthSink class=nondeterministic asil=QM memory=2M
  task idle period=100ms wcet=10K priority=9
  consumes EthSignal
app CanSource class=nondeterministic asil=QM memory=2M
  task tick period=20ms wcet=20K priority=5
  provides CanSignal
app CanSink class=nondeterministic asil=QM memory=2M
  task idle period=100ms wcet=10K priority=9
  consumes CanSignal
deploy EthSource -> EthPub
deploy EthSink -> EthSub
deploy CanSource -> CanPub
deploy CanSink -> CanSub
)";

class Source final : public platform::Application {
 public:
  Source(const char* interface, std::size_t bytes)
      : interface_(interface), bytes_(bytes) {}
  void on_task(const std::string&) override {
    if (!active()) return;
    context_.comm->publish(context_.service_id(interface_), 1,
                           std::vector<std::uint8_t>(bytes_, 0x42),
                           context_.priority_of(interface_));
  }

 private:
  const char* interface_;
  std::size_t bytes_;
};

class Sink final : public platform::Application {
 public:
  Sink(const char* interface, std::uint64_t& delivered)
      : interface_(interface), delivered_(delivered) {}
  void on_start(const platform::AppContext& context) override {
    Application::on_start(context);
    context_.comm->subscribe(
        context_.service_id(interface_), 1,
        [this](std::vector<std::uint8_t>, net::NodeId) { ++delivered_; });
  }

 private:
  const char* interface_;
  std::uint64_t& delivered_;
};

struct NodeAudit {
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::uint64_t heap_allocs = 0;
  double allocs_per_msg = 0.0;
  double allocs_per_event = 0.0;
};

// The same rig at the commit before one-shot jobs left the task table and
// media parked frames by slot (os::Processor::submit built a full task per
// middleware message; media hop callbacks captured whole frames).
constexpr double kParentNodeAllocsPerMsg = 28.98;
constexpr double kParentNodeAllocsPerEvent = 2.132;
// The rig's count after that change (6.51 per message), rounded up to 0.1:
// one more allocation per message anywhere on the path fails the bench.
constexpr double kNodeAllocsPerMsgCeiling = 6.6;

NodeAudit run_node_audit() {
  sim::Simulator simulator;
  // Every message is CPU work on its ECU: the job path under audit.
  platform::Vehicle vehicle(simulator, model::parse_system(kNodeModel));
  platform::DynamicPlatform& dp = vehicle.platform();
  std::uint64_t delivered = 0;
  dp.register_app("EthSource",
                  [] { return std::make_unique<Source>("EthSignal", 64); });
  dp.register_app("CanSource",
                  [] { return std::make_unique<Source>("CanSignal", 16); });
  dp.register_app("EthSink", [&delivered] {
    return std::make_unique<Sink>("EthSignal", delivered);
  });
  dp.register_app("CanSink", [&delivered] {
    return std::make_unique<Sink>("CanSignal", delivered);
  });
  std::string reason;
  if (!dp.install_all(&reason)) {
    std::fprintf(stderr, "full-node rig: install failed: %s\n",
                 reason.c_str());
    return {};
  }
  // Discovery settles and every pool and queue reaches its working size.
  simulator.run_until(sim::seconds(1));
  const std::uint64_t delivered_before = delivered;
  const std::uint64_t events_before = simulator.events_executed();
  const std::uint64_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  simulator.run_until(sim::seconds(11));
  NodeAudit audit;
  audit.heap_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - heap_before;
  audit.delivered = delivered - delivered_before;
  audit.events = simulator.events_executed() - events_before;
  if (audit.delivered > 0) {
    audit.allocs_per_msg = static_cast<double>(audit.heap_allocs) /
                           static_cast<double>(audit.delivered);
  }
  if (audit.events > 0) {
    audit.allocs_per_event = static_cast<double>(audit.heap_allocs) /
                             static_cast<double>(audit.events);
  }
  return audit;
}

// --- Sweep determinism -------------------------------------------------------

constexpr std::size_t kSweepScenarios = 16;

struct SweepResult {
  std::uint64_t merged = 0;
  double wall_ms = 0.0;
};

SweepResult run_sweep(std::size_t threads) {
  sim::ScenarioSweep sweep({.seed = 0xE18, .threads = threads});
  std::vector<std::uint64_t> fingerprints(kSweepScenarios, 0);
  bench::Stopwatch watch;
  sweep.for_each(kSweepScenarios, [&](sim::ScenarioRun& r) {
    ZeroCopyHarness h(256, true);
    h.fingerprint = true;
    std::uint32_t seq = 1;
    for (int i = 0; i < 400; ++i) {
      const std::size_t size =
          static_cast<std::size_t>(r.rng.uniform_int(8, 2000));
      const net::NodeId dst = r.rng.chance(0.3) ? net::kBroadcast : kPeer;
      h.send(seq++, size, dst);
    }
    fingerprints[r.index] = h.stats.wire_fp ^ h.stats.delivered_fp;
  });
  SweepResult result;
  result.wall_ms = watch.elapsed_ms();
  result.merged = sim::ScenarioSweep::merge_fingerprints(fingerprints);
  return result;
}

}  // namespace

int main() {
  bench::banner("E18", "zero-copy middleware data path (Sec. 2.2/3.2)");
  bool ok = true;

  // -- parity: the zero-copy path must emit and deliver the same bytes -------
  std::printf("\n-- wire/delivery parity (legacy vs zero-copy) --\n");
  bench::Table parity_table({"workload", "msgs", "frames_per_msg",
                             "wire_bytes_per_msg", "wire_fp", "parity"});
  struct Row {
    const Workload* w = nullptr;
    Stats stats;  // zero-copy parity stats (legacy matched them)
    int parity_msgs = 0;
    bool parity = false;
    double legacy_ms = 0.0;
    double zero_ms = 0.0;
  };
  std::vector<Row> rows;
  for (const Workload& w : kWorkloads) {
    Row row;
    row.w = &w;
    row.parity_msgs = std::min(w.msgs, 2000);
    const Stats legacy = parity_run<LegacyHarness>(w, row.parity_msgs);
    const Stats zero = parity_run<ZeroCopyHarness>(w, row.parity_msgs);
    row.stats = zero;
    row.parity = legacy.wire_fp == zero.wire_fp &&
                 legacy.delivered_fp == zero.delivered_fp &&
                 legacy.wire_frames == zero.wire_frames &&
                 legacy.wire_bytes == zero.wire_bytes &&
                 legacy.delivered == zero.delivered;
    ok = ok && row.parity;
    parity_table.row(
        {w.name, bench::fmt(row.parity_msgs),
         bench::fmt(static_cast<double>(zero.wire_frames) / row.parity_msgs, 2),
         bench::fmt(static_cast<double>(zero.wire_bytes) / row.parity_msgs, 1),
         fault::hex_u64(zero.wire_fp), row.parity ? "ok" : "MISMATCH"});
    rows.push_back(row);
  }

  // -- throughput ------------------------------------------------------------
  std::printf("\n-- throughput (best of 7 reps) --\n");
  bench::Table tput_table({"workload", "legacy_msgs_per_s",
                           "zero_copy_msgs_per_s", "speedup"});
  const int kReps = 7;
  double small_event_speedup = 0.0;
  for (Row& row : rows) {
    row.legacy_ms = timed_run<LegacyHarness>(*row.w, kReps, ok);
    row.zero_ms = timed_run<ZeroCopyHarness>(*row.w, kReps, ok);
    const double legacy_rate = row.w->msgs / (row.legacy_ms / 1000.0);
    const double zero_rate = row.w->msgs / (row.zero_ms / 1000.0);
    const double speedup = legacy_rate > 0.0 ? zero_rate / legacy_rate : 0.0;
    if (row.w == &kWorkloads[0]) small_event_speedup = speedup;
    tput_table.row({row.w->name, bench::fmt(legacy_rate, 0),
                    bench::fmt(zero_rate, 0), bench::fmt(speedup, 2)});
  }

  // -- allocation ------------------------------------------------------------
  std::printf("\n-- steady-state allocations (single-fragment publish) --\n");
  const AllocCheck alloc = run_alloc_check();
  std::printf("msgs=%llu heap_allocs=%llu arena_chunk_growth=%llu -> %s\n",
              static_cast<unsigned long long>(alloc.msgs),
              static_cast<unsigned long long>(alloc.heap_allocs),
              static_cast<unsigned long long>(alloc.arena_chunks),
              alloc.ok ? "zero-alloc ok" : "ALLOCATION REGRESSION");
  ok = ok && alloc.ok;

  // -- full-node allocation audit ---------------------------------------------
  std::printf("\n-- full-node allocations (Vehicle: apps, middleware, os, "
              "Ethernet + CAN) --\n");
  const NodeAudit node = run_node_audit();
  const bool node_ok = node.delivered > 0 &&
                       node.allocs_per_msg <= kNodeAllocsPerMsgCeiling;
  std::printf(
      "window=10 sim-s delivered=%llu kernel_events=%llu heap_allocs=%llu\n"
      "allocs/msg=%.2f (parent %.2f, ceiling %.1f) allocs/event=%.3f "
      "(parent %.3f) -> %s\n",
      static_cast<unsigned long long>(node.delivered),
      static_cast<unsigned long long>(node.events),
      static_cast<unsigned long long>(node.heap_allocs), node.allocs_per_msg,
      kParentNodeAllocsPerMsg, kNodeAllocsPerMsgCeiling,
      node.allocs_per_event, kParentNodeAllocsPerEvent,
      node_ok ? "ok" : "ALLOCATION REGRESSION");
  ok = ok && node_ok;

  // -- sweep determinism -----------------------------------------------------
  std::printf("\n-- ScenarioSweep determinism (0 vs 4 worker threads) --\n");
  const SweepResult serial = run_sweep(0);
  const SweepResult parallel = run_sweep(4);
  const bool sweep_identical = serial.merged == parallel.merged;
  std::printf(
      "scenarios=%zu merged=%016llx (serial %.2f ms, 4 workers %.2f ms) -> "
      "%s\n",
      kSweepScenarios, static_cast<unsigned long long>(serial.merged),
      serial.wall_ms, parallel.wall_ms,
      sweep_identical ? "bit-identical" : "FINGERPRINT MISMATCH");
  ok = ok && sweep_identical;

  // The zero-copy path must beat the copying baseline outright; a speedup
  // at or below the floor is a regression and fails the bench. The floor is
  // deliberately conservative: on a single-core host with a warm glibc
  // tcache the baseline's four small allocations cost ~35 ns/msg, so the
  // measured 32-byte-event edge is bounded by shared per-frame machinery
  // (~1.2-1.4x here) and grows with message size (>2x at 8 KiB) and with
  // allocator pressure. The 5x target is recorded in the JSON for hosts
  // where the copying path's heap traffic is not tcache-resident.
  constexpr double kSpeedupTarget = 5.0;
  constexpr double kSpeedupFloor = 1.1;
  if (small_event_speedup < kSpeedupFloor) {
    std::fprintf(stderr, "small-event speedup %.2f below floor %.2f\n",
                 small_event_speedup, kSpeedupFloor);
    ok = false;
  }

  // -- JSON ------------------------------------------------------------------
  const bool written = bench::write_result(
      "BENCH_middleware.json", "E18_zero_copy_middleware",
      [&](obs::json::Writer& out) {
        out.key("workloads").begin_array();
        for (const Row& row : rows) {
          const double legacy_rate = row.w->msgs / (row.legacy_ms / 1000.0);
          const double zero_rate = row.w->msgs / (row.zero_ms / 1000.0);
          const double frames_per_msg =
              static_cast<double>(row.stats.wire_frames) / row.parity_msgs;
          out.begin_object()
              .member("name", row.w->name)
              .member("body_bytes", row.w->body)
              .member("reliable", row.w->reliable)
              .member("msgs_per_rep", row.w->msgs)
              .member("frames_per_msg", bench::rounded(frames_per_msg, 2))
              .member("parity", row.parity)
              .member("legacy_msgs_per_sec", bench::rounded(legacy_rate, 0))
              .member("zero_copy_msgs_per_sec", bench::rounded(zero_rate, 0))
              .member("speedup", bench::rounded(zero_rate / legacy_rate, 2))
              .end_object();
        }
        out.end_array()
            .member("small_event_speedup",
                    bench::rounded(small_event_speedup, 2))
            .member("speedup_target", kSpeedupTarget)
            .member("speedup_floor", kSpeedupFloor)
            .member("speedup_ok", small_event_speedup >= kSpeedupTarget)
            .member("speedup_note",
                    "warm-tcache baseline allocations; on a shared host the "
                    "32-byte rows are noise-dominated; edge grows with body "
                    "size (see frag_8k rows) and allocator pressure")
            .member("steady_state_msgs", alloc.msgs)
            .member("steady_state_heap_allocs", alloc.heap_allocs)
            .member("steady_state_arena_chunk_growth", alloc.arena_chunks)
            .member("zero_alloc_ok", alloc.ok);
        out.key("full_node")
            .begin_object()
            .member("window_sim_s", 10)
            .member("delivered", node.delivered)
            .member("kernel_events", node.events)
            .member("heap_allocs", node.heap_allocs)
            .member("allocs_per_msg", bench::rounded(node.allocs_per_msg, 2))
            .member("allocs_per_event",
                    bench::rounded(node.allocs_per_event, 3))
            .member("parent_allocs_per_msg", kParentNodeAllocsPerMsg)
            .member("parent_allocs_per_event", kParentNodeAllocsPerEvent)
            .member("ceiling_allocs_per_msg", kNodeAllocsPerMsgCeiling)
            .member("ok", node_ok)
            .end_object();
        out.key("sweep").begin_object().member("scenarios", kSweepScenarios);
        out.key("threads").begin_array().value(0).value(4).end_array();
        out.member("bit_identical", sweep_identical)
            .member("merged_fingerprint", fault::hex_u64(serial.merged))
            .end_object();
      });
  return written && ok ? 0 : 1;
}
