// Zero-copy data-path edge cases (ISSUE 6 satellites).
//
// Covers the corners the throughput bench cannot see:
//  * PayloadReader hardening — hostile length prefixes near SIZE_MAX and a
//    randomized truncation sweep over multi-slice chains must always throw,
//    never read out of bounds or decode garbage silently.
//  * Transport id-space edges — 16-bit wrap skipping id 0, a sender reusing
//    an id mid-reassembly, acks for ids the sender never sent.
//  * Size edges — zero-length reliable messages, payloads that exactly fill
//    one fragment.
//  * Wire-format invariance — the headroom-prepend fast path must emit the
//    same bytes as the header-block path it optimizes away.
//  * Determinism — the middleware loopback under ScenarioSweep is
//    bit-identical serial vs parallel (the TSan CI job runs this suite to
//    prove arena refcounts never cross threads).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "middleware/payload.hpp"
#include "middleware/transport.hpp"
#include "net/buffer.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

namespace dynaplat {
namespace {

// --- PayloadReader hardening -------------------------------------------------

// Splits `bytes` into a slice chain at pseudo-random boundaries so the
// reader's cross-slice cursor is exercised; `salt` varies the split points.
net::Payload chain_split(const std::vector<std::uint8_t>& bytes,
                         std::uint64_t salt) {
  net::Payload chain;
  std::uint64_t state = salt * 0x9E3779B97F4A7C15ULL + 1;
  std::size_t at = 0;
  while (at < bytes.size()) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t take =
        std::min<std::size_t>(1 + (state >> 33) % 7, bytes.size() - at);
    net::BufferRef block = net::BufferRef::copy_bytes(bytes.data() + at, take);
    chain.append(block, 0, take);
    at += take;
  }
  return chain;
}

TEST(ReaderOverflow, HostileLengthPrefixCannotWrap) {
  // A length prefix of 0xFFFFFFFF with 4 bytes remaining: pos + len would
  // wrap a naive `pos + n > size` check and read far out of bounds. The
  // reader compares against the remaining count instead.
  middleware::PayloadWriter w;
  w.u32(0xFFFFFFFFu);
  w.raw(reinterpret_cast<const std::uint8_t*>("zzzz"), 4);
  const std::vector<std::uint8_t> bytes = w.bytes();

  {
    middleware::PayloadReader r(bytes);
    EXPECT_THROW(r.str(), std::out_of_range);
  }
  {
    middleware::PayloadReader r(bytes);
    EXPECT_THROW(r.blob(), std::out_of_range);
  }
  // Same prefix arriving as a multi-slice chain (reassembled fragments).
  const net::Payload chained = chain_split(bytes, 3);
  ASSERT_GT(chained.slice_count(), 1u);
  middleware::PayloadReader r(chained);
  EXPECT_THROW(r.str(), std::out_of_range);
}

TEST(ReaderOverflow, TruncationSweepThrowsNeverDecodesGarbage) {
  // Canonical message touching every scalar width plus both length-prefixed
  // forms. Any strict prefix must throw out_of_range somewhere before the
  // final sentinel — silent success on truncated input is the bug.
  middleware::PayloadWriter w;
  w.u8(0xA5);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(3.14159);
  w.str("the quick brown fox jumps over the lazy dog");
  std::vector<std::uint8_t> big(100);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  w.blob(big);
  w.u32(0xC0FFEEu);  // sentinel: full decode must reach this
  const std::vector<std::uint8_t> full = w.bytes();

  const auto decode = [&](const net::Payload& p) {
    middleware::PayloadReader r(p);
    EXPECT_EQ(r.u8(), 0xA5);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
    EXPECT_EQ(r.str(), "the quick brown fox jumps over the lazy dog");
    EXPECT_EQ(r.blob(), big);
    EXPECT_EQ(r.u32(), 0xC0FFEEu);
    EXPECT_TRUE(r.exhausted());
  };

  for (std::size_t len = 0; len <= full.size(); ++len) {
    const std::vector<std::uint8_t> prefix(full.begin(), full.begin() + len);
    const net::Payload chain = chain_split(prefix, len);
    if (len == full.size()) {
      decode(chain);
    } else {
      EXPECT_THROW(decode(chain), std::out_of_range) << "prefix len " << len;
    }
  }
}

// --- Transport id-space and size edges ---------------------------------------

// A transport whose outbound frames land in a vector (no medium, no sim) —
// the construction idiom of the existing unit tests.
struct Capture {
  std::vector<net::Frame> sent;
  std::function<void(net::Frame)> sink() {
    return [this](net::Frame f) { sent.push_back(std::move(f)); };
  }
};

std::uint16_t frame_message_id(const net::Frame& frame) {
  return static_cast<std::uint16_t>(frame.payload[0] |
                                    (frame.payload[1] << 8));
}

net::Frame make_fragment(std::uint16_t id, std::uint16_t index,
                         std::uint16_t count,
                         const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(6 + body.size());
  bytes.push_back(static_cast<std::uint8_t>(id));
  bytes.push_back(static_cast<std::uint8_t>(id >> 8));
  bytes.push_back(static_cast<std::uint8_t>(index));
  bytes.push_back(static_cast<std::uint8_t>(index >> 8));
  bytes.push_back(static_cast<std::uint8_t>(count));
  bytes.push_back(static_cast<std::uint8_t>(count >> 8));
  bytes.insert(bytes.end(), body.begin(), body.end());
  net::Frame frame;
  frame.src = 1;
  frame.dst = 2;
  frame.payload = std::move(bytes);
  return frame;
}

TEST(TransportEdgeCases, MessageIdWrapsAndSkipsZero) {
  // The id allocator must never hand out 0 (the "unused" sentinel of the
  // reassembly map) — after 0xFFFF it wraps straight to 1.
  std::uint16_t prev = 0;
  bool wrapped = false;
  bool saw_zero = false;
  sim::Simulator simulator;
  middleware::Transport tx(
      [&](net::Frame frame) {
        const std::uint16_t id = frame_message_id(frame);
        if (id == 0) saw_zero = true;
        if (prev == 0xFFFF) {
          wrapped = true;
          EXPECT_EQ(id, 1u) << "wrap must skip id 0";
        }
        prev = id;
      },
      64, simulator);
  for (int i = 0; i < 65600; ++i) {
    tx.send(2, 3, 0, net::Payload{});
  }
  EXPECT_TRUE(wrapped);
  EXPECT_FALSE(saw_zero);
  EXPECT_EQ(tx.messages_sent(), 65600u);
}

TEST(TransportEdgeCases, SenderIdReuseMidReassemblyRestarts) {
  // A rebooted sender reuses message id 7 with a different fragment count
  // while the receiver still holds a partial: the stale partial is dropped
  // (counted as a failure) and reassembly restarts for the new message.
  sim::Simulator simulator;
  Capture out;
  middleware::Transport rx(out.sink(), 16, simulator);
  std::vector<std::vector<std::uint8_t>> delivered;
  rx.set_handler(
      [&](net::NodeId, net::Payload message, const obs::TraceContext&) {
        delivered.push_back(message.to_vector());
      });

  rx.on_frame(make_fragment(7, 0, 2, std::vector<std::uint8_t>(10, 'A')));
  EXPECT_EQ(rx.partial_count(), 1u);

  rx.on_frame(make_fragment(7, 0, 3, std::vector<std::uint8_t>(10, 'B')));
  EXPECT_EQ(rx.reassembly_failures(), 1u);
  EXPECT_EQ(rx.partial_count(), 1u);

  rx.on_frame(make_fragment(7, 1, 3, std::vector<std::uint8_t>(10, 'C')));
  rx.on_frame(make_fragment(7, 2, 3, std::vector<std::uint8_t>(2, 'D')));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(rx.partial_count(), 0u);

  std::vector<std::uint8_t> expected(10, 'B');
  expected.insert(expected.end(), 10, 'C');
  expected.insert(expected.end(), 2, 'D');
  EXPECT_EQ(delivered[0], expected);
}

TEST(TransportEdgeCases, AckForUnknownIdIsIgnored) {
  // Late or forged acks (and unknown control codes) must be no-ops: no
  // delivery, no failure count, no partial state.
  sim::Simulator simulator;
  Capture out;
  middleware::Transport rx(out.sink(), 16, simulator);
  std::size_t delivered = 0;
  rx.set_handler([&](net::NodeId, net::Payload, const obs::TraceContext&) {
    ++delivered;
  });

  rx.on_frame(make_fragment(999 & 0xFFFF, 0, 0, {}));  // ACK, never sent
  rx.on_frame(make_fragment(42, 5, 0, {}));            // unknown control code
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(rx.messages_received(), 0u);
  EXPECT_EQ(rx.reassembly_failures(), 0u);
  EXPECT_EQ(rx.partial_count(), 0u);

  // A frame too short to carry a header is a reassembly failure, not a read
  // past the buffer.
  net::Frame runt;
  runt.src = 1;
  runt.dst = 2;
  runt.payload = {0x01, 0x02};
  rx.on_frame(runt);
  EXPECT_EQ(rx.reassembly_failures(), 1u);
}

TEST(TransportEdgeCases, PayloadExactlyFillsSingleFragment) {
  // chunk = max_frame_payload - header = 26: a 26-byte message is exactly
  // one full frame; 27 bytes tips into two fragments.
  sim::Simulator simulator;
  Capture out;
  middleware::Transport tx(out.sink(), 32, simulator);
  middleware::Transport rx([](net::Frame) {}, 32, simulator);
  std::vector<std::vector<std::uint8_t>> delivered;
  rx.set_handler(
      [&](net::NodeId, net::Payload message, const obs::TraceContext&) {
        delivered.push_back(message.to_vector());
      });

  EXPECT_EQ(tx.fragments_for(26), 1u);
  EXPECT_EQ(tx.fragments_for(27), 2u);

  std::vector<std::uint8_t> boundary(26);
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    boundary[i] = static_cast<std::uint8_t>(0x30 + i);
  }
  tx.send(2, 3, 0, boundary);
  ASSERT_EQ(out.sent.size(), 1u);
  EXPECT_EQ(out.sent[0].payload.size(), 32u);  // header + full chunk

  std::vector<std::uint8_t> over(27, 0x7E);
  tx.send(2, 3, 0, over);
  ASSERT_EQ(out.sent.size(), 3u);
  EXPECT_EQ(out.sent[2].payload.size(), 6u + 1u);  // 1 spill byte

  for (net::Frame& frame : out.sent) {
    frame.src = 1;
    rx.on_frame(frame);
  }
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], boundary);
  EXPECT_EQ(delivered[1], over);
  EXPECT_EQ(rx.partial_count(), 0u);
}

// Two reliable transports joined by a synchronous loopback on one simulator
// (the fault_test Wire idiom, minus loss).
struct Loopback {
  explicit Loopback(middleware::TransportConfig config) {
    a = std::make_unique<middleware::Transport>(
        [this](net::Frame frame) {
          frame.src = 1;
          sim.schedule_in(10 * sim::kMicrosecond,
                          [this, frame] { b->on_frame(frame); });
        },
        16, sim, config);
    b = std::make_unique<middleware::Transport>(
        [this](net::Frame frame) {
          frame.src = 2;
          sim.schedule_in(10 * sim::kMicrosecond,
                          [this, frame] { a->on_frame(frame); });
        },
        16, sim, config);
  }

  sim::Simulator sim;
  std::unique_ptr<middleware::Transport> a;
  std::unique_ptr<middleware::Transport> b;
};

TEST(TransportEdgeCases, ZeroLengthReliableMessageRoundTrips) {
  // An empty message still makes a valid reliable transmission: the frame
  // carries only header + CRC trailer, the receiver acks, nothing retries.
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 10 * sim::kMillisecond;
  Loopback wire(config);

  std::size_t delivered = 0;
  std::size_t delivered_bytes = 0;
  wire.b->set_handler(
      [&](net::NodeId src, net::Payload message, const obs::TraceContext&) {
        ++delivered;
        delivered_bytes += message.size();
        EXPECT_EQ(src, 1u);
      });

  wire.a->send(2, 3, 0, net::Payload{});
  wire.sim.run_until(100 * sim::kMillisecond);

  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(delivered_bytes, 0u);
  EXPECT_EQ(wire.b->acks_sent(), 1u);
  EXPECT_EQ(wire.a->pending_reliable(), 0u);
  EXPECT_EQ(wire.a->retries(), 0u);
  EXPECT_EQ(wire.b->crc_failures(), 0u);
}

// --- Wire-format invariance ---------------------------------------------------

TEST(WireFormat, HeadroomPrependMatchesHeaderBlockPath) {
  // The same message sent through the writer's headroom chain (header
  // prepended in place, one-slice frame) and through the legacy vector API
  // (separate header block) must be byte-identical on the wire.
  sim::Simulator simulator;
  Capture chain_out;
  middleware::Transport chain_tx(chain_out.sink(), 1500, simulator);
  Capture vector_out;
  middleware::Transport vector_tx(vector_out.sink(), 1500, simulator);

  std::vector<std::uint8_t> body(48);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  }

  middleware::PayloadWriter writer(chain_tx.arena(), body.size());
  writer.raw(body.data(), body.size());
  chain_tx.send(2, 3, 42, writer.take_chain());
  vector_tx.send(2, 3, 42, body);

  ASSERT_EQ(chain_out.sent.size(), 1u);
  ASSERT_EQ(vector_out.sent.size(), 1u);
  // The prepend fast path fired: header and payload share one slice.
  EXPECT_EQ(chain_out.sent[0].payload.slice_count(), 1u);
  EXPECT_GT(vector_out.sent[0].payload.slice_count(), 1u);
  EXPECT_EQ(chain_out.sent[0].payload.to_vector(),
            vector_out.sent[0].payload.to_vector());
  EXPECT_EQ(net::payload_fnv1a(chain_out.sent[0].payload),
            net::payload_fnv1a(vector_out.sent[0].payload));
}

// --- ScenarioSweep determinism (TSan coverage) --------------------------------

// One scenario: a reliable loopback pair with RNG-driven loss and message
// sizes, fingerprinted over every delivered chain and the transports'
// counters. Run serial (threads 0) and parallel, compare bit-for-bit. The
// TSan CI job runs this test to prove arena blocks and refcounts stay
// scenario-local — any cross-thread sharing is a data race it would flag.
std::uint64_t middleware_scenario_fingerprint(sim::ScenarioRun& run) {
  middleware::TransportConfig config;
  config.reliable = true;
  config.ack_timeout = 5 * sim::kMillisecond;
  config.max_retries = 4;

  std::uint64_t fp = 0xCBF29CE484222325ULL ^ run.index;
  std::unique_ptr<middleware::Transport> a;
  std::unique_ptr<middleware::Transport> b;
  a = std::make_unique<middleware::Transport>(
      [&](net::Frame frame) {
        frame.src = 1;
        if (run.rng.chance(0.15)) return;  // lossy wire
        run.simulator.schedule_in(10 * sim::kMicrosecond,
                                  [&b, frame] { b->on_frame(frame); });
      },
      64, run.simulator, config);
  b = std::make_unique<middleware::Transport>(
      [&](net::Frame frame) {
        frame.src = 2;
        if (run.rng.chance(0.15)) return;
        run.simulator.schedule_in(10 * sim::kMicrosecond,
                                  [&a, frame] { a->on_frame(frame); });
      },
      64, run.simulator, config);
  b->set_handler(
      [&fp](net::NodeId, net::Payload message, const obs::TraceContext&) {
        fp = net::payload_fnv1a(message, fp);
      });

  middleware::PayloadWriter writer(a->arena());
  for (int i = 0; i < 30; ++i) {
    const std::size_t size = 1 + run.rng.next_below(200);
    writer.hint(size + 8);
    writer.u64(static_cast<std::uint64_t>(i) << 32 | run.index);
    for (std::size_t n = 0; n < size; n += 8) {
      writer.u64(run.rng.next_u64());
    }
    a->send(2, 3, 7, writer.take_chain());
    run.simulator.run_until(run.simulator.now() + 2 * sim::kMillisecond);
  }
  run.simulator.run_until(run.simulator.now() + 500 * sim::kMillisecond);

  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  fp = (fp ^ b->messages_received()) * kPrime;
  fp = (fp ^ a->retries()) * kPrime;
  fp = (fp ^ a->delivery_failures()) * kPrime;
  fp = (fp ^ b->duplicates_suppressed()) * kPrime;
  fp = (fp ^ b->crc_failures()) * kPrime;
  return fp;
}

TEST(MiddlewareSweep, LoopbackBitIdenticalAcrossThreadCounts) {
  std::vector<std::uint64_t> serial;
  std::vector<std::uint64_t> parallel;
  {
    sim::ScenarioSweep sweep({.seed = 2024, .threads = 0});
    serial =
        sweep.run<std::uint64_t>(12, middleware_scenario_fingerprint);
  }
  {
    sim::ScenarioSweep sweep({.seed = 2024, .threads = 3});
    parallel =
        sweep.run<std::uint64_t>(12, middleware_scenario_fingerprint);
  }
  ASSERT_EQ(serial.size(), 12u);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(sim::ScenarioSweep::merge_fingerprints(serial),
            sim::ScenarioSweep::merge_fingerprints(parallel));
}

}  // namespace
}  // namespace dynaplat
