// Middleware message header (SOME/IP-inspired wire format).
#pragma once

#include <cstdint>

#include "middleware/payload.hpp"
#include "net/frame.hpp"

namespace dynaplat::middleware {

/// Identifies a service (== one modeled interface).
using ServiceId = std::uint16_t;
/// Identifies an event, method or stream within a service.
using ElementId = std::uint16_t;

enum class MsgType : std::uint8_t {
  kOffer = 0,        ///< service discovery: "I provide service S"
  kFind = 1,         ///< service discovery: "who provides service S?"
  kSubscribe = 2,    ///< event/stream subscription request
  kUnsubscribe = 3,
  kNotify = 4,       ///< event publication to one subscriber
  kRequest = 5,      ///< RPC request
  kResponse = 6,     ///< RPC response
  kStreamData = 7,   ///< stream frame (element = stream id, session = seq)
  kError = 8,
};

struct MessageHeader {
  MsgType type = MsgType::kError;
  ServiceId service = 0;
  ElementId element = 0;
  /// RPC correlation id, stream sequence number, or interface version for
  /// discovery messages.
  std::uint32_t session = 0;
  net::NodeId sender = 0;
  /// Truncated HMAC authentication tag (0 when auth disabled). See
  /// security::AuthenticationService.
  std::uint64_t auth_tag = 0;

  static constexpr std::size_t kWireSize = 1 + 2 + 2 + 4 + 4 + 8;

  /// Serializes the header (kWireSize bytes) into `w` — with an arena-mode
  /// writer the header lands in a recycled block and the body is appended
  /// as a slice, no linearization.
  void encode_header(PayloadWriter& w) const;

  /// Decodes a full message; returns false on malformed input. `body`
  /// becomes a sub-view of `wire` (refcount bumps only, no byte copy).
  /// `wire` may be a reassembled multi-fragment chain.
  static bool decode(const net::Payload& wire, MessageHeader& header,
                     net::Payload& body);
};

}  // namespace dynaplat::middleware
