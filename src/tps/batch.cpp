#include "tps/batch.h"

#include "util/error.h"

namespace p2p::tps {

util::Bytes encode_batch_frame(std::span<const BatchItem> items) {
  util::ByteWriter w;
  w.write_u8(kBatchFrameVersion);
  w.write_varint(items.size());
  for (const auto& item : items) {
    w.write_uuid(item.id);
    w.write_bytes(item.payload ? std::span<const std::uint8_t>(*item.payload)
                               : std::span<const std::uint8_t>());
  }
  return w.take();
}

BatchDecodeResult try_decode_batch_frame(std::span<const std::uint8_t> frame,
                                         const BatchLimits& limits) {
  util::DecodeLimits reader_limits;
  reader_limits.max_length = limits.max_event_bytes;
  reader_limits.max_count = limits.max_events;
  util::ByteReader r(frame, reader_limits);

  BatchDecodeResult result;
  std::uint8_t version = 0;
  if (!r.try_read_u8(version)) {
    result.error = r.error();
    return result;
  }
  if (version != kBatchFrameVersion) {
    result.error = util::DecodeError::kBadValue;
    return result;
  }
  std::uint64_t count = 0;
  if (!r.try_read_count(count)) {
    result.error = r.error();
    return result;
  }
  // The count is a peer-supplied claim: cap the pre-allocation and let a
  // short frame fail on its first truncated read, so a 3-byte frame cannot
  // reserve gigabytes (count x item-size amplification).
  result.items.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(count, 256)));
  for (std::uint64_t i = 0; i < count; ++i) {
    DecodedBatchItem item;
    if (!r.try_read_uuid(item.id) || !r.try_read_bytes(item.payload)) {
      result.error = r.error();
      return result;
    }
    result.items.push_back(std::move(item));
  }
  return result;
}

std::vector<DecodedBatchItem> decode_batch_frame(
    std::span<const std::uint8_t> frame) {
  BatchDecodeResult result = try_decode_batch_frame(frame);
  if (!result.ok()) {
    if (result.error == util::DecodeError::kBadValue) {
      throw util::ParseError(
          "unknown tps:batch frame version " +
          std::to_string(frame.empty() ? 0 : frame.front()));
    }
    throw util::ParseError("tps:batch frame: " +
                           std::string(util::to_string(result.error)));
  }
  return std::move(result.items);
}

}  // namespace p2p::tps
