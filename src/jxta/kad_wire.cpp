#include "jxta/kad_wire.h"

namespace p2p::jxta {

namespace {

bool op_has_key(KadOp op) { return op != KadOp::kPing && op != KadOp::kPong; }

bool op_has_records(KadOp op) {
  return op == KadOp::kStore || op == KadOp::kValue;
}

bool op_is_known(std::uint8_t op) {
  switch (static_cast<KadOp>(op)) {
    case KadOp::kPing:
    case KadOp::kPong:
    case KadOp::kStore:
    case KadOp::kFindNode:
    case KadOp::kFindValue:
    case KadOp::kNodes:
    case KadOp::kValue:
      return true;
  }
  return false;
}

}  // namespace

util::Bytes encode_kad_frame(const KadFrame& frame) {
  util::ByteWriter w;
  w.write_u8(kKadFrameVersion);
  w.write_u8(static_cast<std::uint8_t>(frame.op));
  if (op_has_key(frame.op)) {
    w.write_uuid(frame.key);
  }
  if (op_has_records(frame.op)) {
    w.write_u8(frame.adv_type);
    w.write_varint(frame.records.size());
    for (const auto& rec : frame.records) {
      w.write_string(rec.adv_xml);
      w.write_i64(rec.lifetime_ms);
    }
  }
  if (frame.op == KadOp::kNodes) {
    w.write_varint(frame.contacts.size());
    for (const auto& c : frame.contacts) {
      w.write_uuid(c.id.uuid());
      w.write_varint(c.addresses.size());
      for (const auto& a : c.addresses) w.write_string(a.to_string());
    }
  }
  return w.take();
}

KadDecodeResult try_decode_kad_frame(std::span<const std::uint8_t> data,
                                     const KadLimits& limits) {
  KadDecodeResult out;
  util::DecodeLimits caps;
  caps.max_length = limits.max_xml_bytes;
  util::ByteReader r(data, caps);

  std::uint8_t version = 0;
  std::uint8_t op_byte = 0;
  if (!r.try_read_u8(version) || !r.try_read_u8(op_byte)) {
    out.error = r.error();
    return out;
  }
  if (version != kKadFrameVersion || !op_is_known(op_byte)) {
    out.error = util::DecodeError::kBadValue;
    return out;
  }
  out.frame.op = static_cast<KadOp>(op_byte);

  if (op_has_key(out.frame.op) && !r.try_read_uuid(out.frame.key)) {
    out.error = r.error();
    return out;
  }

  if (op_has_records(out.frame.op)) {
    std::uint64_t count = 0;
    if (!r.try_read_u8(out.frame.adv_type) || !r.try_read_count(count)) {
      out.error = r.error();
      return out;
    }
    if (count > limits.max_records) {
      out.error = util::DecodeError::kCountCap;
      return out;
    }
    out.frame.records.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      KadRecord rec;
      std::int64_t lifetime = 0;
      if (!r.try_read_string(rec.adv_xml) || !r.try_read_i64(lifetime)) {
        out.error = r.error();
        return out;
      }
      rec.lifetime_ms = lifetime;
      out.frame.records.push_back(std::move(rec));
    }
  }

  if (out.frame.op == KadOp::kNodes) {
    std::uint64_t count = 0;
    if (!r.try_read_count(count)) {
      out.error = r.error();
      return out;
    }
    if (count > limits.max_contacts) {
      out.error = util::DecodeError::kCountCap;
      return out;
    }
    out.frame.contacts.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      KadContact contact;
      util::Uuid id;
      std::uint64_t addr_count = 0;
      if (!r.try_read_uuid(id) || !r.try_read_count(addr_count)) {
        out.error = r.error();
        return out;
      }
      if (addr_count > limits.max_addresses) {
        out.error = util::DecodeError::kCountCap;
        return out;
      }
      contact.id = PeerId(id);
      contact.addresses.reserve(addr_count);
      for (std::uint64_t j = 0; j < addr_count; ++j) {
        std::string text;
        if (!r.try_read_string(text)) {
          out.error = r.error();
          return out;
        }
        const auto addr = net::Address::parse(text);
        if (!addr) {
          out.error = util::DecodeError::kBadValue;
          return out;
        }
        contact.addresses.push_back(*addr);
      }
      out.frame.contacts.push_back(std::move(contact));
    }
  }

  if (!r.at_end()) {
    out.error = util::DecodeError::kBadValue;
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace p2p::jxta
