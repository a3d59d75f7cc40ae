// Unit + integration tests for the service-oriented middleware: payload
// codec, transport segmentation, discovery, and the three communication
// paradigms of Sec. 2.1 over a simulated Ethernet backbone.
#include <gtest/gtest.h>

#include <memory>

#include "middleware/payload.hpp"
#include "middleware/runtime.hpp"
#include "middleware/transport.hpp"
#include "net/can_bus.hpp"
#include "net/ethernet.hpp"
#include "sim/simulator.hpp"

namespace dynaplat::middleware {
namespace {

// --- Payload codec ------------------------------------------------------------

TEST(Payload, RoundTripsAllTypes) {
  PayloadWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.blob({1, 2, 3});
  const auto bytes = w.bytes();
  PayloadReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Payload, TruncatedReadThrows) {
  PayloadWriter w;
  w.u16(7);
  const auto bytes = w.bytes();
  PayloadReader r(bytes);
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(Payload, MalformedStringLengthThrows) {
  PayloadWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  const auto bytes = w.bytes();
  PayloadReader r(bytes);
  EXPECT_THROW(r.str(), std::out_of_range);
}

// --- Message header -------------------------------------------------------------

TEST(Message, HeaderRoundTrip) {
  MessageHeader h;
  h.type = MsgType::kRequest;
  h.service = 0x1234;
  h.element = 0x0042;
  h.session = 99;
  h.sender = 7;
  h.auth_tag = 0xA1B2C3D4E5F60718ull;
  const std::vector<std::uint8_t> body{9, 8, 7};
  PayloadWriter w;
  h.encode_header(w);
  w.raw(body.data(), body.size());
  const net::Payload wire = w.take_chain();
  MessageHeader out;
  net::Payload out_body;
  ASSERT_TRUE(MessageHeader::decode(wire, out, out_body));
  EXPECT_EQ(out.type, MsgType::kRequest);
  EXPECT_EQ(out.service, 0x1234);
  EXPECT_EQ(out.element, 0x0042);
  EXPECT_EQ(out.session, 99u);
  EXPECT_EQ(out.sender, 7u);
  EXPECT_EQ(out.auth_tag, 0xA1B2C3D4E5F60718ull);
  EXPECT_EQ(out_body.to_vector(), body);
}

TEST(Message, DecodeRejectsShortOrBadType) {
  MessageHeader h;
  net::Payload body;
  EXPECT_FALSE(MessageHeader::decode({1, 2, 3}, h, body));
  std::vector<std::uint8_t> bad(MessageHeader::kWireSize, 0);
  bad[0] = 200;  // invalid MsgType
  EXPECT_FALSE(MessageHeader::decode(bad, h, body));
}

// --- Transport segmentation ------------------------------------------------------

TEST(Transport, SingleFragmentFastPath) {
  sim::Simulator simulator;
  std::vector<net::Frame> sent;
  Transport tx([&](net::Frame f) { sent.push_back(std::move(f)); }, 100,
               simulator);
  Transport rx([](net::Frame) {}, 100, simulator);
  std::vector<std::uint8_t> received;
  rx.set_handler([&](net::NodeId, net::Payload m, const obs::TraceContext&) {
    received = m.to_vector();
  });
  tx.send(5, 0, 1, {1, 2, 3});
  ASSERT_EQ(sent.size(), 1u);
  rx.on_frame(sent[0]);
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Transport, FragmentsAndReassemblesLargeMessage) {
  sim::Simulator simulator;
  std::vector<net::Frame> sent;
  Transport tx([&](net::Frame f) { sent.push_back(std::move(f)); }, 64,
               simulator);
  Transport rx([](net::Frame) {}, 64, simulator);
  std::vector<std::uint8_t> message(1000);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> received;
  rx.set_handler([&](net::NodeId, net::Payload m, const obs::TraceContext&) {
    received = m.to_vector();
  });
  tx.send(5, 0, 1, message);
  EXPECT_EQ(sent.size(), tx.fragments_for(1000));
  EXPECT_GT(sent.size(), 1u);
  for (const auto& frame : sent) rx.on_frame(frame);
  EXPECT_EQ(received, message);
}

TEST(Transport, OutOfOrderFragmentsStillReassemble) {
  sim::Simulator simulator;
  std::vector<net::Frame> sent;
  Transport tx([&](net::Frame f) { sent.push_back(std::move(f)); }, 32,
               simulator);
  Transport rx([](net::Frame) {}, 32, simulator);
  std::vector<std::uint8_t> message(200, 0x5A);
  int completed = 0;
  rx.set_handler([&](net::NodeId, net::Payload m, const obs::TraceContext&) {
    ++completed;
    EXPECT_EQ(m.to_vector(), message);
  });
  tx.send(5, 0, 1, message);
  ASSERT_GT(sent.size(), 2u);
  // Deliver in reverse order.
  for (auto it = sent.rbegin(); it != sent.rend(); ++it) rx.on_frame(*it);
  EXPECT_EQ(completed, 1);
}

TEST(Transport, CanSizedFramesWork) {
  // 8-byte CAN frames leave 2 payload bytes per fragment.
  sim::Simulator simulator;
  std::vector<net::Frame> sent;
  Transport tx([&](net::Frame f) { sent.push_back(std::move(f)); }, 8,
               simulator);
  Transport rx([](net::Frame) {}, 8, simulator);
  std::vector<std::uint8_t> message{10, 20, 30, 40, 50};
  std::vector<std::uint8_t> received;
  rx.set_handler([&](net::NodeId, net::Payload m, const obs::TraceContext&) {
    received = m.to_vector();
  });
  tx.send(5, 0, 1, message);
  EXPECT_EQ(sent.size(), 3u);  // ceil(5/2)
  for (const auto& f : sent) {
    EXPECT_LE(f.payload.size(), 8u);
    rx.on_frame(f);
  }
  EXPECT_EQ(received, message);
}

TEST(Transport, CorruptFragmentCountsAsFailure) {
  sim::Simulator simulator;
  Transport rx([](net::Frame) {}, 64, simulator);
  net::Frame junk;
  junk.payload = {1, 2};  // shorter than fragment header
  rx.on_frame(junk);
  EXPECT_EQ(rx.reassembly_failures(), 1u);
}

// --- ServiceRuntime over a simulated backbone -------------------------------------

class RuntimeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    medium_ = std::make_unique<net::EthernetSwitch>(sim_, "eth0",
                                                    net::EthernetConfig{});
    for (int i = 0; i < 3; ++i) {
      os::EcuConfig config;
      config.name = "ecu" + std::to_string(i);
      config.cpu.mips = 1000;
      config.seed = 100 + static_cast<std::uint64_t>(i);
      ecus_.push_back(std::make_unique<os::Ecu>(
          sim_, config, medium_.get(), static_cast<net::NodeId>(i + 1)));
      ecus_.back()->processor().start();
      runtimes_.push_back(std::make_unique<ServiceRuntime>(*ecus_.back()));
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<net::EthernetSwitch> medium_;
  std::vector<std::unique_ptr<os::Ecu>> ecus_;
  std::vector<std::unique_ptr<ServiceRuntime>> runtimes_;
};

TEST_F(RuntimeFixture, OfferPropagatesToAllNodes) {
  runtimes_[0]->offer(42, 3);
  sim_.run_until(10 * sim::kMillisecond);
  for (const auto& rt : runtimes_) {
    const auto provider = rt->provider_of(42);
    ASSERT_TRUE(provider.has_value());
    EXPECT_EQ(*provider, runtimes_[0]->node());
    EXPECT_EQ(rt->provider_version(42).value_or(0), 3u);
  }
}

TEST_F(RuntimeFixture, EventParadigmDeliversToSubscribers) {
  runtimes_[0]->offer(7);
  std::vector<std::uint8_t> got1, got2;
  runtimes_[1]->subscribe(7, 1, [&](std::vector<std::uint8_t> d, net::NodeId) {
    got1 = std::move(d);
  });
  runtimes_[2]->subscribe(7, 1, [&](std::vector<std::uint8_t> d, net::NodeId) {
    got2 = std::move(d);
  });
  sim_.run_until(10 * sim::kMillisecond);
  runtimes_[0]->publish(7, 1, {0xCA, 0xFE});
  sim_.run_until(20 * sim::kMillisecond);
  EXPECT_EQ(got1, (std::vector<std::uint8_t>{0xCA, 0xFE}));
  EXPECT_EQ(got2, (std::vector<std::uint8_t>{0xCA, 0xFE}));
}

TEST_F(RuntimeFixture, SubscribeBeforeOfferBindsDynamically) {
  // Consumer subscribes first; provider appears later (dynamic platform:
  // app installed at runtime). The parked subscription must flush.
  int received = 0;
  runtimes_[1]->subscribe(9, 1, [&](std::vector<std::uint8_t>, net::NodeId) {
    ++received;
  });
  sim_.run_until(5 * sim::kMillisecond);
  runtimes_[0]->offer(9);
  sim_.run_until(15 * sim::kMillisecond);
  runtimes_[0]->publish(9, 1, {1});
  sim_.run_until(25 * sim::kMillisecond);
  EXPECT_EQ(received, 1);
}

TEST_F(RuntimeFixture, UnsubscribeStopsDelivery) {
  runtimes_[0]->offer(7);
  int received = 0;
  runtimes_[1]->subscribe(7, 1, [&](std::vector<std::uint8_t>, net::NodeId) {
    ++received;
  });
  sim_.run_until(10 * sim::kMillisecond);
  runtimes_[0]->publish(7, 1, {1});
  sim_.run_until(20 * sim::kMillisecond);
  runtimes_[1]->unsubscribe(7, 1);
  sim_.run_until(30 * sim::kMillisecond);
  runtimes_[0]->publish(7, 1, {2});
  sim_.run_until(40 * sim::kMillisecond);
  EXPECT_EQ(received, 1);
}

TEST_F(RuntimeFixture, MessageParadigmRpcRoundTrip) {
  runtimes_[0]->offer(11);
  runtimes_[0]->provide_method(
      11, 2, [](const std::vector<std::uint8_t>& request) {
        // Echo doubled values.
        std::vector<std::uint8_t> response;
        for (auto b : request) response.push_back(static_cast<std::uint8_t>(b * 2));
        return response;
      });
  bool ok = false;
  std::vector<std::uint8_t> response;
  runtimes_[2]->call(11, 2, {1, 2, 3},
                     [&](bool success, std::vector<std::uint8_t> r) {
                       ok = success;
                       response = std::move(r);
                     });
  sim_.run_until(50 * sim::kMillisecond);
  EXPECT_TRUE(ok);
  EXPECT_EQ(response, (std::vector<std::uint8_t>{2, 4, 6}));
}

TEST_F(RuntimeFixture, RpcToUnknownMethodFails) {
  runtimes_[0]->offer(11);
  bool called = false, ok = true;
  runtimes_[1]->call(11, 99, {1},
                     [&](bool success, std::vector<std::uint8_t>) {
                       called = true;
                       ok = success;
                     });
  sim_.run_until(50 * sim::kMillisecond);
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST_F(RuntimeFixture, RpcToAbsentServiceTimesOut) {
  bool called = false, ok = true;
  runtimes_[1]->call(77, 1, {},
                     [&](bool success, std::vector<std::uint8_t>) {
                       called = true;
                       ok = success;
                     });
  sim_.run_until(sim::seconds(1));
  // Find timeout expires, parked call dropped and counted.
  EXPECT_GE(runtimes_[1]->failed_calls(), 1u);
  (void)called;
  (void)ok;
}

TEST_F(RuntimeFixture, LocalRpcStaysOnEcu) {
  runtimes_[0]->offer(11);
  runtimes_[0]->provide_method(
      11, 2, [](const std::vector<std::uint8_t>&) {
        return std::vector<std::uint8_t>{42};
      });
  sim_.run_until(5 * sim::kMillisecond);  // let the Offer reach the wire
  const auto sent_before = runtimes_[0]->messages_sent();
  bool ok = false;
  runtimes_[0]->call(11, 2, {}, [&](bool success, std::vector<std::uint8_t>) {
    ok = success;
  });
  sim_.run_until(20 * sim::kMillisecond);
  EXPECT_TRUE(ok);
  // Only the initial Offer went to the wire; the call itself did not.
  EXPECT_EQ(runtimes_[0]->messages_sent(), sent_before);
}

TEST_F(RuntimeFixture, StreamParadigmSequencesAndCountsLosses) {
  runtimes_[0]->offer(13);
  std::vector<std::uint32_t> sequences;
  runtimes_[1]->subscribe_stream(13, 4,
                                 [&](std::uint32_t seq, std::vector<std::uint8_t>) {
                                   sequences.push_back(seq);
                                 });
  sim_.run_until(10 * sim::kMillisecond);
  for (int i = 0; i < 5; ++i) {
    runtimes_[0]->stream_send(13, 4, std::vector<std::uint8_t>(256, 1));
  }
  sim_.run_until(100 * sim::kMillisecond);
  ASSERT_EQ(sequences.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(sequences[i], i);
  EXPECT_EQ(runtimes_[1]->stream_losses(13, 4), 0u);
}

TEST_F(RuntimeFixture, InboundFilterRejectsMessages) {
  runtimes_[0]->offer(7);
  int received = 0;
  runtimes_[1]->subscribe(7, 1, [&](std::vector<std::uint8_t>, net::NodeId) {
    ++received;
  });
  sim_.run_until(10 * sim::kMillisecond);
  // Install a filter that rejects all notifications.
  runtimes_[1]->set_inbound_filter(
      [](const MessageHeader& h, const std::vector<std::uint8_t>&) {
        return h.type != MsgType::kNotify;
      });
  runtimes_[0]->publish(7, 1, {1});
  sim_.run_until(30 * sim::kMillisecond);
  EXPECT_EQ(received, 0);
  EXPECT_GE(runtimes_[1]->rejected_messages(), 1u);
}

TEST_F(RuntimeFixture, OutboundTaggerStampsAuthTag) {
  runtimes_[0]->offer(7);
  runtimes_[0]->set_outbound_tagger(
      [](net::NodeId, const MessageHeader&,
         const std::vector<std::uint8_t>&) { return 0xFEEDFACEu; });
  std::uint64_t seen_tag = 0;
  runtimes_[1]->set_inbound_filter(
      [&](const MessageHeader& h, const std::vector<std::uint8_t>&) {
        if (h.type == MsgType::kNotify) seen_tag = h.auth_tag;
        return true;
      });
  runtimes_[1]->subscribe(7, 1,
                          [](std::vector<std::uint8_t>, net::NodeId) {});
  sim_.run_until(10 * sim::kMillisecond);
  runtimes_[0]->publish(7, 1, {1});
  sim_.run_until(30 * sim::kMillisecond);
  EXPECT_EQ(seen_tag, 0xFEEDFACEu);
}

TEST_F(RuntimeFixture, FailedEcuStopsCommunicating) {
  runtimes_[0]->offer(7);
  int received = 0;
  runtimes_[1]->subscribe(7, 1, [&](std::vector<std::uint8_t>, net::NodeId) {
    ++received;
  });
  sim_.run_until(10 * sim::kMillisecond);
  ecus_[0]->fail();
  runtimes_[0]->publish(7, 1, {1});
  sim_.run_until(50 * sim::kMillisecond);
  EXPECT_EQ(received, 0);
}

// Parameterized: all three paradigms deliver across payload sizes.
class PayloadSizeSweep : public RuntimeFixture,
                         public ::testing::WithParamInterface<std::size_t> {};

TEST_P(PayloadSizeSweep, EventDeliversAnySize) {
  const std::size_t size = GetParam();
  runtimes_[0]->offer(21);
  std::size_t got = 0;
  runtimes_[1]->subscribe(21, 1, [&](std::vector<std::uint8_t> d, net::NodeId) {
    got = d.size();
  });
  sim_.run_until(10 * sim::kMillisecond);
  runtimes_[0]->publish(21, 1, std::vector<std::uint8_t>(size, 0x7E));
  sim_.run_until(200 * sim::kMillisecond);
  EXPECT_EQ(got, size);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSizeSweep,
                         ::testing::Values(1, 8, 100, 1400, 1500, 4096,
                                           16384));

}  // namespace
}  // namespace dynaplat::middleware

// --- Field paradigm (appended) --------------------------------------------------

namespace dynaplat::middleware {
namespace {

class FieldFixture : public RuntimeFixture {};

TEST_F(FieldFixture, GetReadsInitialValue) {
  runtimes_[0]->offer(30);
  runtimes_[0]->provide_field(30, 1, {0x11, 0x22});
  bool ok = false;
  std::vector<std::uint8_t> value;
  runtimes_[1]->field_get(30, 1, [&](bool success, std::vector<std::uint8_t> v) {
    ok = success;
    value = std::move(v);
  });
  sim_.run_until(100 * sim::kMillisecond);
  EXPECT_TRUE(ok);
  EXPECT_EQ(value, (std::vector<std::uint8_t>{0x11, 0x22}));
}

TEST_F(FieldFixture, SetUpdatesProviderAndNotifiesSubscribers) {
  runtimes_[0]->offer(30);
  runtimes_[0]->provide_field(30, 1, {0});
  std::vector<std::uint8_t> observed;
  int notifications = 0;
  runtimes_[2]->subscribe_field(30, 1,
                                [&](std::vector<std::uint8_t> v, net::NodeId) {
                                  observed = std::move(v);
                                  ++notifications;
                                });
  sim_.run_until(100 * sim::kMillisecond);
  EXPECT_EQ(notifications, 1);  // initial seed read
  bool set_ok = false;
  runtimes_[1]->field_set(30, 1, {0x77},
                          [&](bool success, std::vector<std::uint8_t>) {
                            set_ok = success;
                          });
  sim_.run_until(300 * sim::kMillisecond);
  EXPECT_TRUE(set_ok);
  EXPECT_EQ(runtimes_[0]->field_value(30, 1).value_or(std::vector<std::uint8_t>{}),
            (std::vector<std::uint8_t>{0x77}));
  EXPECT_EQ(notifications, 2);
  EXPECT_EQ(observed, (std::vector<std::uint8_t>{0x77}));
}

TEST_F(FieldFixture, GetOnAbsentFieldFails) {
  runtimes_[0]->offer(30);
  bool called = false, ok = true;
  runtimes_[1]->field_get(30, 9, [&](bool success, std::vector<std::uint8_t>) {
    called = true;
    ok = success;
  });
  sim_.run_until(300 * sim::kMillisecond);
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace dynaplat::middleware
