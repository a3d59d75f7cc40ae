#include "middleware/message.hpp"

namespace dynaplat::middleware {

void MessageHeader::encode_header(PayloadWriter& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(service);
  w.u16(element);
  w.u32(session);
  w.u32(sender);
  w.u64(auth_tag);
}

bool MessageHeader::decode(const net::Payload& wire, MessageHeader& header,
                           net::Payload& body) {
  if (wire.size() < kWireSize) return false;
  PayloadReader r(wire);
  const std::uint8_t type_raw = r.u8();
  if (type_raw > static_cast<std::uint8_t>(MsgType::kError)) return false;
  header.type = static_cast<MsgType>(type_raw);
  header.service = r.u16();
  header.element = r.u16();
  header.session = r.u32();
  header.sender = r.u32();
  header.auth_tag = r.u64();
  body = wire.subspan(kWireSize);
  return true;
}

}  // namespace dynaplat::middleware
